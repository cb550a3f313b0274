"""Pure helpers of the benchmark: percentiles, telemetry-episode parsing,
output checks of each job, and the seeded choice of churn-proc jobs.
They take plain data and never touch processes, so the tests in
`test_benchlib.py` cover them directly."""

import math
import random

# churn-proc members (as `CHURN_MEMBERS` in perfbench/src/workload.rs,
# which refuses a victim outside them).
CHURN_MEMBERS = 3
# The victim dies at an `allreduce.step` occurrence in this window. At p = 3
# a step of the default model passes the fault point 16 times, so the
# window lies within the first epoch (4 steps): one recovery, then the
# spare's join at the epoch boundary.
CHURN_DIE_WINDOW = (5, 56)
# A job's length in optimizer steps is drawn from this window, centred on
# the launcher's default of 16. The launcher notices its workers' exits
# only every 20 ms, which rounds each job's time up to its next poll; the
# 16 steps of spread (about 40 ms at p = 3) spread the jobs' true end times
# over two polls, so their mean is not rounded with them.
CHURN_STEPS_WINDOW = (8, 24)
# Where the survivors of a death restart. A member runs up to one operation
# ahead of its ring neighbours, so when it is killed the survivors may still
# be in the operation before its own. They agree to restart at the earliest
# one: the victim's allreduce, or the operation before it. That is the
# previous allreduce, or, for a step's first allreduce, the commit barrier
# that ended the previous step, after which the survivors recompute the
# step at the smaller world. Each restart point gives its own replica, and
# all of them are correct forward recovery; which one a job takes depends
# on timing. The constants below locate them for the default model at p = 3:
# `allreduce.step` occurrences per allreduce (the ring's 2(p - 1) protocol
# steps), allreduces per training step (one per tensor), and rounds of the
# dissemination barrier (ceil(log2 p)).
CHURN_STEPS_PER_ALLREDUCE = 4
CHURN_ALLREDUCES_PER_STEP = 4
CHURN_BARRIER_ROUNDS = 2


def percentile(values, q):
    """The q-th percentile (0 <= q <= 100) by linear interpolation between
    closest ranks, as numpy's default does."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


def trimmed_mean(values, cut=10):
    """The mean of the samples between the `cut`-th and the (100 - cut)-th
    percentile, both included. Like the median it ignores the tails; unlike
    the median it moves smoothly when the samples fall on a few discrete
    levels, as the times of a program that polls with a fixed sleep do.
    Two different samples have none between those percentiles; their
    trimmed mean is their median."""
    lo, hi = percentile(values, cut), percentile(values, 100 - cut)
    mid = [v for v in values if lo <= v <= hi]
    return sum(mid) / len(mid) if mid else median(values)


TAIL_CANDIDATES = (99.9, 99, 95, 90, 80, 75)


def tail_percentile(n):
    """The highest percentile among TAIL_CANDIDATES with at least ten of
    `n` samples beyond it, or None when no candidate has."""
    for q in TAIL_CANDIDATES:
        if n - math.ceil(n * q / 100.0) >= 10:
            return q
    return None


def episodes_by_kind(telemetry, kind):
    """The episodes of one kind (`forward`, `backward`, `join`) in a parsed
    `telemetry-{rank}.json`, each as (rank, total_ms, {phase: ms})."""
    out = []
    for e in telemetry.get("episodes", []):
        if e["kind"] != kind:
            continue
        phases = {}
        for p in e["phases"]:
            phases[p["name"]] = phases.get(p["name"], 0.0) + p["ns"] / 1e6
        out.append((e["rank"], sum(phases.values()), phases))
    return out


def recovery_samples(telemetries):
    """recovery_ms samples: the sum of one forward episode's phases, one
    sample per surviving rank per failure."""
    return [t for tel in telemetries for (_, t, _) in episodes_by_kind(tel, "forward")]


def join_samples(telemetries):
    """join_ms samples: one join episode's total, per rank per join."""
    return [t for tel in telemetries for (_, t, _) in episodes_by_kind(tel, "join")]


def phase_samples(telemetries, kind, phase):
    return [
        ph[phase]
        for tel in telemetries
        for (_, _, ph) in episodes_by_kind(tel, kind)
        if phase in ph
    ]


def training_ns(telemetry):
    """Time a rank spent in training steps: the sum of its
    `elastic.forward.step_ns` histogram, 0 when it recorded none."""
    h = telemetry.get("histograms", {}).get("elastic.forward.step_ns")
    return h["sum"] if h else 0


def check_training_job(job, reference_fp, world):
    """Why a failure-free training job failed, or None when it passed.

    A job fails when a completed replica differs from the reference, fewer
    ranks complete than started, or it recorded a recovery episode or a
    suspicion."""
    done = [fp for fp in job["fps"] if fp is not None]
    if job["completed"] < world or len(done) < world:
        return "%d of %d ranks completed" % (len(done), world)
    wrong = [fp for fp in done if fp != reference_fp]
    if wrong:
        return "replica fingerprints %s differ from reference %s" % (
            sorted(set(wrong)), reference_fp)
    if job["episodes"]:
        return "failure-free job recorded %d recovery episode(s)" % job["episodes"]
    if job["suspicions"]:
        return "failure-free job suspected %d live peer(s)" % job["suspicions"]
    return None


def check_consistent(job, world):
    """For jobs without a reference: every rank completed, replicas agree."""
    done = [fp for fp in job["fps"] if fp is not None]
    if len(done) < world:
        return "%d of %d ranks completed" % (len(done), world)
    if len(set(done)) != 1:
        return "replicas diverged: %s" % sorted(set(done))
    return None


def parse_result(text):
    """A `result-{rank}.txt` line (`exit=completed fp=... steps=...`) as a
    dict of its fields."""
    return dict(tok.split("=", 1) for tok in text.split() if "=" in tok)


def reference_deaths(victim, at):
    """In-process deaths, in `repro launch --die` syntax, whose replicas are
    the correct outcomes of `victim` dying at `allreduce.step` occurrence
    `at`: a death inside the same allreduce, where the survivors redo it,
    and a death that makes them redo the operation before it."""
    k = (at - 1) // CHURN_STEPS_PER_ALLREDUCE  # the victim's allreduce, from 0
    first = k * CHURN_STEPS_PER_ALLREDUCE
    out = ["%d@allreduce.step:%d" % (victim, first + 2)]
    step, tensor = divmod(k, CHURN_ALLREDUCES_PER_STEP)
    if tensor > 0:
        # The previous allreduce, killed at its last protocol step.
        out.append("%d@allreduce.step:%d" % (victim, first))
    elif step > 0:
        # The previous step's commit barrier, killed in its last round.
        out.append("%d@barrier.step:%d" % (victim, step * CHURN_BARRIER_ROUNDS))
    return out


def check_churn_job(rc, results, victim, reference_fps):
    """Why a churn-proc job failed, or None when it passed.

    `results` maps every launched rank (members and spares) to its parsed
    result file, or None when the process never wrote one (or, for the
    victim, was not read: it may be killed while writing it). The job
    passes when the launcher exited 0 (it exits nonzero when its deadline
    passes), the victim did not complete, and every other rank completed
    holding the same replica, one of `reference_fps`."""
    if rc != 0:
        return "launcher exited %d" % rc
    held = set()
    for rank, res in sorted(results.items()):
        if rank == victim:
            if res is not None and res.get("exit") == "completed":
                return "victim %d completed: the fault never fired" % rank
            continue
        if res is None or res.get("exit") != "completed":
            return "rank %d did not complete (%s)" % (rank, res and res.get("exit"))
        if res.get("fp") not in reference_fps:
            return "rank %d replica %s is none of the references %s" % (
                rank, res.get("fp"), sorted(reference_fps))
        held.add(res.get("fp"))
    if len(held) > 1:
        return "survivors diverged: %s" % sorted(held)
    return None


def pick_jobs(seed, count):
    """`count` churn-proc jobs drawn from the workload seed, each as
    (steps, victim, occurrence): its length, the member to SIGKILL and the
    `allreduce.step` occurrence it dies at."""
    rng = random.Random(seed)
    lo, hi = CHURN_DIE_WINDOW
    return [(rng.randint(*CHURN_STEPS_WINDOW), rng.randrange(CHURN_MEMBERS), rng.randint(lo, hi))
            for _ in range(count)]


def job_spec(steps, death):
    """`perfbench`'s STEPS/VICTIM@POINT:AT."""
    return "%d/%s" % (steps, death)
