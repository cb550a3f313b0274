"""Tests of the benchmark's percentile, episode-parsing and output-check
code. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import benchlib as bl


class Percentiles(unittest.TestCase):
    def test_median_matches_statistics(self):
        for xs in ([3.0], [1.0, 2.0], [5.0, 1.0, 4.0], [9, 1, 8, 2, 7, 3]):
            self.assertAlmostEqual(bl.median(xs), statistics.median(xs))

    def test_interpolates_between_ranks(self):
        xs = list(range(11))  # 0..10
        self.assertEqual(bl.percentile(xs, 0), 0)
        self.assertEqual(bl.percentile(xs, 100), 10)
        self.assertAlmostEqual(bl.percentile(xs, 90), 9.0)
        self.assertAlmostEqual(bl.percentile([0.0, 1.0], 25), 0.25)

    def test_trimmed_mean(self):
        self.assertEqual(bl.trimmed_mean([5.0]), 5.0)
        # A run that finished two jobs (a slow host, or failed jobs).
        self.assertEqual(bl.trimmed_mean([2.0, 3.0]), 2.5)
        self.assertEqual(bl.trimmed_mean([2.0, 3.0, 4.0]), 3.0)
        # The tails (1 and 100) are left out; 2, 3 and 4 are averaged.
        self.assertAlmostEqual(bl.trimmed_mean([1, 2, 3, 4, 100], cut=25), 3.0)
        xs = [1000.0] + [2.0] * 18 + [0.0]
        self.assertAlmostEqual(bl.trimmed_mean(xs), 2.0)
        # Samples on two levels: it follows the share of each level,
        # where the median jumps from one level to the other.
        low = [0.047] * 45 + [0.067] * 55
        high = [0.047] * 55 + [0.067] * 45
        self.assertEqual((bl.median(low), bl.median(high)), (0.067, 0.047))
        self.assertLess(abs(bl.trimmed_mean(low) - bl.trimmed_mean(high)), 0.003)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            bl.percentile([], 50)

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertIsNone(bl.tail_percentile(10))
        self.assertEqual(bl.tail_percentile(40), 75)  # 10 beyond p75
        self.assertEqual(bl.tail_percentile(50), 80)
        self.assertEqual(bl.tail_percentile(100), 90)
        self.assertEqual(bl.tail_percentile(200), 95)
        self.assertEqual(bl.tail_percentile(1000), 99)
        for n in range(11, 3000, 7):
            q = bl.tail_percentile(n)
            if q is not None:
                self.assertGreaterEqual(n - -(-n * q // 100), 10)


def episode(kind, rank, phases):
    return {
        "kind": kind,
        "rank": rank,
        "at_step": 1,
        "total_ns": sum(ns for _, ns in phases),
        "phases": [{"name": n, "ns": ns} for n, ns in phases],
    }


TELEMETRY = [
    {"episodes": [
        episode("forward", 0, [("revoke", 10_000), ("agree", 500_000), ("shrink", 700_000)]),
        episode("join", 0, [("state_sync", 1_500_000)]),
    ]},
    {"episodes": [
        episode("forward", 2, [("revoke", 20_000), ("agree", 400_000), ("shrink", 600_000)]),
        episode("join", 2, [("state_sync", 1_000_000)]),
    ]},
    {"episodes": [episode("join", 3, [("state_sync", 2_000_000)])]},
    {},  # a rank that recorded no episode at all
]


class Episodes(unittest.TestCase):
    def test_recovery_sample_per_surviving_rank(self):
        self.assertEqual(sorted(bl.recovery_samples(TELEMETRY)), [1.02, 1.21])

    def test_join_sample_per_rank_per_join(self):
        self.assertEqual(sorted(bl.join_samples(TELEMETRY)), [1.0, 1.5, 2.0])

    def test_phase_samples(self):
        self.assertEqual(bl.phase_samples(TELEMETRY, "forward", "agree"), [0.5, 0.4])
        self.assertEqual(bl.phase_samples(TELEMETRY, "forward", "rendezvous"), [])

    def test_training_ns(self):
        tel = {"histograms": {"elastic.forward.step_ns": {"count": 16, "sum": 40_000_000}}}
        self.assertEqual(bl.training_ns(tel), 40_000_000)
        self.assertEqual(bl.training_ns({}), 0)

    def test_repeated_phase_names_add_up(self):
        tel = {"episodes": [episode("forward", 1, [("agree", 1_000_000), ("agree", 500_000)])]}
        [(rank, total, phases)] = bl.episodes_by_kind(tel, "forward")
        self.assertEqual((rank, total, phases), (1, 1.5, {"agree": 1.5}))


def job(fps, completed=None, episodes=0, suspicions=0):
    return {
        "fps": fps,
        "completed": len([f for f in fps if f]) if completed is None else completed,
        "episodes": episodes,
        "suspicions": suspicions,
    }


class TrainingChecks(unittest.TestCase):
    def test_clean_job_passes(self):
        self.assertIsNone(bl.check_training_job(job(["aa", "aa"]), "aa", 2))

    def test_split_brain_fails(self):
        # Each rank finished alone at world 1 with its own replica.
        why = bl.check_training_job(job(["aa", "bb"]), "aa", 2)
        self.assertIn("differ from reference", why)

    def test_consistent_but_wrong_replicas_fail(self):
        self.assertIn("differ", bl.check_training_job(job(["bb", "bb"]), "aa", 2))

    def test_missing_rank_fails(self):
        self.assertIn("1 of 2", bl.check_training_job(job(["aa", None]), "aa", 2))

    def test_recovery_or_suspicion_in_failure_free_job_fails(self):
        self.assertIn("recovery", bl.check_training_job(job(["aa", "aa"], episodes=1), "aa", 2))
        self.assertIn("suspected", bl.check_training_job(job(["aa", "aa"], suspicions=2), "aa", 2))

    def test_consistency_without_reference(self):
        self.assertIsNone(bl.check_consistent(job(["x", "x"]), 2))
        self.assertIn("diverged", bl.check_consistent(job(["x", "y"]), 2))


def completed(fp):
    return bl.parse_result("exit=completed fp=%s steps=12 world=3 recoveries=1" % fp)


class ChurnChecks(unittest.TestCase):
    def results(self):
        # Rank 1 is the victim; rank 3 the spare that joined.
        return {0: completed("f0"), 1: None, 2: completed("f0"), 3: completed("f0")}

    def test_parse_result(self):
        self.assertEqual(bl.parse_result("exit=died\n"), {"exit": "died"})
        self.assertEqual(completed("ab")["fp"], "ab")

    def test_clean_churn_job_passes(self):
        self.assertIsNone(bl.check_churn_job(0, self.results(), 1, {"f0"}))

    def test_launcher_failure_fails(self):
        self.assertIn("exited 1", bl.check_churn_job(1, self.results(), 1, {"f0"}))

    def test_victim_that_completed_fails(self):
        why = bl.check_churn_job(0, self.results() | {1: completed("f0")}, 1, {"f0"})
        self.assertIn("never fired", why)

    def test_survivor_with_other_replica_fails(self):
        why = bl.check_churn_job(0, self.results() | {3: completed("e9")}, 1, {"f0"})
        self.assertIn("rank 3 replica e9", why)

    def test_survivor_without_result_fails(self):
        why = bl.check_churn_job(0, self.results() | {0: None}, 1, {"f0"})
        self.assertIn("rank 0 did not complete", why)

    def test_either_replica_of_a_boundary_death_passes(self):
        self.assertIsNone(bl.check_churn_job(0, self.results(), 1, {"f0", "a1"}))
        both = self.results() | {0: completed("a1"), 2: completed("a1"), 3: completed("a1")}
        self.assertIsNone(bl.check_churn_job(0, both, 1, {"f0", "a1"}))

    def test_survivors_split_between_references_fail(self):
        split = self.results() | {3: completed("a1")}
        self.assertIn("diverged", bl.check_churn_job(0, split, 1, {"f0", "a1"}))


class Jobs(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        self.assertEqual(bl.pick_jobs(7, 50), bl.pick_jobs(7, 50))
        self.assertNotEqual(bl.pick_jobs(7, 50), bl.pick_jobs(8, 50))

    def test_jobs_cover_their_windows(self):
        jobs = bl.pick_jobs(1, 5000)
        lo, hi = bl.CHURN_STEPS_WINDOW
        self.assertEqual({s for s, _, _ in jobs}, set(range(lo, hi + 1)))
        self.assertEqual({v for _, v, _ in jobs}, set(range(bl.CHURN_MEMBERS)))
        # Allreduce starts included: their race is part of the workload.
        lo, hi = bl.CHURN_DIE_WINDOW
        self.assertEqual({at for _, _, at in jobs}, set(range(lo, hi + 1)))

    def test_job_spec(self):
        self.assertEqual(bl.job_spec(12, "1@allreduce.step:9"), "12/1@allreduce.step:9")

    def test_reference_deaths(self):
        # Occurrences 5-8 are the second allreduce (4 protocol steps each):
        # redo it (a death at its second step), or redo the first (a death
        # at the first one's last step).
        for at in (5, 6, 8):
            self.assertEqual(bl.reference_deaths(2, at),
                             ["2@allreduce.step:6", "2@allreduce.step:4"])
        # Occurrence 33 is in the first allreduce of training step 2 (16
        # occurrences a step): the operation before it is the commit
        # barrier of step 1, the second barrier.
        self.assertEqual(bl.reference_deaths(0, 33),
                         ["0@allreduce.step:34", "0@barrier.step:4"])
        # The job's first allreduce has no operation before it.
        self.assertEqual(bl.reference_deaths(1, 3), ["1@allreduce.step:2"])


if __name__ == "__main__":
    unittest.main()
