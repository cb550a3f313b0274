//! The benchmark's workloads. Each one fixes only the model shape, the world
//! size, the transport backend and the scripted faults; every other knob is
//! left at the program's own default (`TrainSpec::default()`,
//! `ScenarioConfig::quick`), so a change of default is measured rather than
//! bypassed.

use elastic::scenario::Engine;
use elastic::{ScenarioConfig, ScenarioKind, TrainSpec};
use transport::{BackendKind, FaultPlan, RankId};

/// Optimizer steps per training job.
pub const TRAIN_STEPS: usize = 40;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Few, large tensors over Unix-domain sockets (VGG-like mix).
    DenseUnix,
    /// Many tiny tensors over the in-process fabric (NasNet-like mix).
    DeepInproc,
    /// Real processes through `repro launch` with a SIGKILL and a warm
    /// spare; its jobs are driven from `run.py`, and the in-process side
    /// only replays its group and computes reference fingerprints.
    ChurnProc,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "dense-unix" => Ok(Workload::DenseUnix),
            "deep-inproc" => Ok(Workload::DeepInproc),
            "churn-proc" => Ok(Workload::ChurnProc),
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    /// World size of the workload's jobs.
    pub fn world(self) -> usize {
        match self {
            Workload::DenseUnix | Workload::DeepInproc => 2,
            Workload::ChurnProc => CHURN_MEMBERS,
        }
    }

    pub fn backend(self) -> BackendKind {
        match self {
            Workload::DenseUnix | Workload::ChurnProc => BackendKind::Unix,
            Workload::DeepInproc => BackendKind::InProc,
        }
    }

    /// The training spec: the workload's model shape and the job length,
    /// seeded by the benchmark's `--seed`.
    pub fn spec(self, seed: u64) -> TrainSpec {
        let base = TrainSpec {
            seed,
            ..TrainSpec::default()
        };
        match self {
            // 256→1024→256→16: 6 tensors, 529,680 parameters.
            Workload::DenseUnix => TrainSpec {
                features: 256,
                hidden: vec![1024, 256],
                classes: 16,
                total_steps: TRAIN_STEPS,
                ..base
            },
            // 562 hidden layers of width 8: 1,126 tensors.
            Workload::DeepInproc => TrainSpec {
                hidden: vec![8; 562],
                total_steps: TRAIN_STEPS,
                ..base
            },
            // The launcher's own model and seed (`repro worker` trains the
            // default spec); only the job length is set. The benchmark
            // seed picks the deaths instead (`run.py`).
            Workload::ChurnProc => TrainSpec {
                total_steps: CHURN_STEPS,
                ..TrainSpec::default()
            },
        }
    }

    /// A failure-free forward-recovery job of this workload.
    pub fn clean_job(self, seed: u64, world: usize, backend: BackendKind) -> ScenarioConfig {
        ScenarioConfig {
            spec: self.spec(seed),
            workers: world,
            backend,
            // Upscale with no joiners is the scenario without a scripted
            // fault.
            joiners: 0,
            ..ScenarioConfig::quick(Engine::UlfmForward, ScenarioKind::Upscale)
        }
    }
}

/// churn-proc: initial members, warm spares, and the mean optimizer steps
/// per job, the launcher's default. `run.py` launches the same shape.
pub const CHURN_MEMBERS: usize = 3;
pub const CHURN_SPARES: usize = 1;
pub const CHURN_STEPS: usize = 16;

/// One churn-proc job, written `STEPS/VICTIM@POINT:AT`: its length, and the
/// member that dies at the AT-th occurrence of fault point POINT (the
/// launcher's `--die` syntax).
#[derive(Debug)]
pub struct ChurnJob {
    pub steps: usize,
    pub victim: usize,
    pub point: String,
    pub at: u64,
}

impl ChurnJob {
    pub fn parse(spec: &str) -> Result<Self, String> {
        let bad = || format!("`{spec}` is not STEPS/VICTIM@POINT:AT");
        let (steps, death) = spec.split_once('/').ok_or_else(bad)?;
        let (victim, rest) = death.split_once('@').ok_or_else(bad)?;
        let (point, at) = rest.split_once(':').ok_or_else(bad)?;
        let job = ChurnJob {
            steps: steps.parse().map_err(|_| bad())?,
            victim: victim.parse().map_err(|_| bad())?,
            point: point.to_string(),
            at: at.parse().map_err(|_| bad())?,
        };
        if job.victim >= CHURN_MEMBERS {
            return Err(format!(
                "victim {} is not one of {CHURN_MEMBERS} members",
                job.victim
            ));
        }
        Ok(job)
    }

    /// The launcher's `--die` argument.
    pub fn die(&self) -> String {
        format!("{}@{}:{}", self.victim, self.point, self.at)
    }

    /// The in-process counterpart: the same spec, length and group, the
    /// victim killed at the same fault-point occurrence, and the spare
    /// admitted as a joiner. Its fingerprint is the reference the real
    /// processes' replicas must match.
    pub fn reference(&self) -> ScenarioConfig {
        let cfg = ScenarioConfig {
            spec: TrainSpec {
                total_steps: self.steps,
                ..Workload::ChurnProc.spec(0)
            },
            workers: CHURN_MEMBERS,
            ranks_per_node: 1,
            victim: self.victim,
            fail_at_op: self.at,
            joiners: CHURN_SPARES,
            ..ScenarioConfig::quick(Engine::UlfmForward, ScenarioKind::Replace)
        };
        if self.point == "allreduce.step" {
            return cfg;
        }
        // The scenario scripts its kill at `allreduce.step`; a kill elsewhere
        // goes in as an extra fault, and the scripted one is never reached.
        ScenarioConfig {
            fail_at_op: u64::MAX,
            extra_faults: FaultPlan::none().kill_at_point(
                RankId(self.victim),
                &*self.point,
                self.at,
            ),
            ..cfg
        }
    }
}

impl std::fmt::Display for ChurnJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.steps, self.die())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_job_round_trips_the_launcher_syntax() {
        let job = ChurnJob::parse("12/2@allreduce.step:9").unwrap();
        assert_eq!((job.steps, job.victim, job.at), (12, 2, 9));
        assert_eq!(job.die(), "2@allreduce.step:9");
        assert_eq!(job.to_string(), "12/2@allreduce.step:9");
        assert_eq!(job.reference().spec.total_steps, 12);
    }

    #[test]
    fn churn_job_rejects_a_victim_outside_the_members() {
        assert!(ChurnJob::parse("16/3@allreduce.step:9").is_err());
        assert!(ChurnJob::parse("16/1@9").is_err());
    }

    #[test]
    fn a_barrier_death_is_an_extra_fault() {
        let cfg = ChurnJob::parse("16/1@barrier.step:2").unwrap().reference();
        assert_eq!(cfg.fail_at_op, u64::MAX);
    }
}
