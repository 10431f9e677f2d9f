//! The campaign execution planner.
//!
//! A naive sweep treats every scenario of the grid as an independent cold
//! evaluation, even though campaign grids repeat work by construction:
//! rate what-ifs revisit identical `(machine, problem)` cells on analytic
//! backends, and DES what-ifs that only change compute-event durations
//! share the *entire* simulation prefix up to the hardware-swap point.
//! [`ExecPlan::build`] turns a [`SweepSpec`] expansion into an execution
//! plan that pays each distinct piece of work once:
//!
//! 1. **Grid dedup** — scenarios are folded onto *jobs*, one per distinct
//!    evaluation input closure `(backend, workload, machine spec[, fork
//!    base])` — workload identity is its `(kind, param digest)` pair.
//!    The first scenario (lowest id) of each equivalence class
//!    is the job's prototype; the others receive a clone of its report.
//!    Evaluation is pure, so the clone is byte-identical to what the
//!    duplicate scenario would have computed itself.
//! 2. **Snapshot-prefix sharing** — when [`SweepSpec::des_fork`] is set,
//!    DES jobs with the same problem parameters and the same *base*
//!    machine twin share one paused prefix: the planner groups them into
//!    a [`ForkGroup`], runs `Engine::run_paused` once per group, and
//!    replays only the divergent suffixes via
//!    `Paused::snapshot().resume_with(...)`. Per-scenario fork semantics
//!    are defined by `des_fork` itself (pause base, swap, resume), so the
//!    naive path performs the identical pause-and-swap independently per
//!    scenario — sharing the prefix changes wall time, never bytes.
//! 3. **Fallbacks** — a job whose twin fails the static noise-class
//!    probe ([`cluster_sim::snapshot_compatible`]) cannot resume from
//!    the base prefix at all, so the fork semantics degrade to a plain
//!    cold run for that scenario — in the naive path and the planned
//!    path alike, keeping them byte-identical. The count is surfaced
//!    (`sweep.plan.fallbacks`) and the probe's error names the
//!    offending noise-class pair, so a silent plan degradation is
//!    debuggable.
//!
//! The plan's shape (jobs, groups, fallbacks) is a deterministic function
//! of the spec — it never depends on worker count, cache capacity or
//! timing — so its counters publish as deterministic metrics.
//!
//! # Cost
//!
//! Planning is expected O(scenarios): a planner that compared every
//! scenario with every earlier job would cost more than the evaluations
//! it saves on a procurement-sized grid. Each scenario is looked up by a
//! bucket key that hashes a *subset* of the fields its dedup equality
//! compares — backend, canonical problem index, canonical base machine
//! (forked DES only), and the machine spec's id, analytic name and rate
//! table, each `f64` through the cache's `canon` (`-0.0` → `0.0`). Equal
//! scenarios therefore always share a bucket; on a hit the full `==`
//! runs against the bucket's jobs in ascending order, so the job found
//! is the lowest-index equal one, exactly as a pairwise scan would find.
//! Unequal specs that hash alike (a noise-toggled twin) only lengthen a
//! bucket, and a spec with a NaN field, equal to nothing, never dedups.
//! The canonical axis indices are computed once per axis; fork groups
//! key on `(canonical problem, canonical base machine)`.
//! [`SweepSpec::scenarios`] shares one scaled machine per `(machine,
//! multiplier)` behind an `Arc`, so expansion scales each pair once.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use wavefront_models::Backend;

use crate::cache::canon;
use crate::spec::{Scenario, SweepSpec};

/// Shape counters of an execution plan (all deterministic functions of
/// the spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Scenarios in the expanded grid.
    pub scenarios: usize,
    /// Distinct evaluations after grid dedup.
    pub jobs: usize,
    /// Scenarios answered by another scenario's evaluation.
    pub deduped: usize,
    /// Snapshot-fork groups (shared prefixes paid once each).
    pub groups: usize,
    /// Suffix resumes replayed from forked snapshots.
    pub fork_resumes: u64,
    /// DES jobs evaluated standalone because their twin failed the
    /// noise-class probe against the group's base machine.
    pub fallbacks: u64,
}

/// One distinct evaluation of the grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanJob {
    /// Index (into the scenario expansion) of the prototype scenario —
    /// the lowest-id scenario of the equivalence class; its evaluation
    /// inputs define the job.
    pub proto: usize,
    /// All scenario indices sharing this job's report, ascending
    /// (prototype first).
    pub scenarios: Vec<usize>,
}

/// Jobs sharing one paused simulation prefix: same problem parameters
/// and same base machine twin, all noise-class compatible with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkGroup {
    /// Machine-axis index whose *unscaled* twin runs the prefix.
    pub machine: usize,
    /// Problem-axis index of the shared program set.
    pub problem: usize,
    /// Member job indices, ascending; suffixes resume in this order.
    pub members: Vec<usize>,
}

/// The planned execution of one campaign grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecPlan {
    /// Distinct evaluations, in prototype scenario-id order.
    pub jobs: Vec<PlanJob>,
    /// scenario index → job index answering it.
    pub assignment: Vec<usize>,
    /// Snapshot-fork groups over `jobs`.
    pub groups: Vec<ForkGroup>,
    /// Job indices evaluated standalone (analytic, unforked DES,
    /// fallbacks), ascending.
    pub singles: Vec<usize>,
    /// DES jobs demoted to `singles` by the noise-class probe.
    pub fallbacks: u64,
    /// The spec's fork point (groups are only formed when set).
    pub fork: Option<u64>,
}

impl ExecPlan {
    /// Plan the execution of `scenarios` (the expansion of `spec`).
    pub fn build(spec: &SweepSpec, scenarios: &[Scenario]) -> ExecPlan {
        let fork = spec.des_fork;
        // Canonical index of every axis entry: the first entry equal to
        // it. Workloads are equal when their `(kind, param digest)`
        // identities are. Machines compare with `MachineSpec`'s `==`, so
        // one with a NaN field equals nothing, itself included: it has no
        // canonical index and never shares a job or a fork group.
        let mut first_problem: HashMap<(&str, u64), usize> = HashMap::new();
        let problem: Vec<usize> = spec
            .problems
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let identity = (p.workload.kind(), p.workload.param_digest());
                *first_problem.entry(identity).or_insert(i)
            })
            .collect();
        let machine: Vec<Option<usize>> =
            spec.machines.iter().map(|m| spec.machines.iter().position(|o| o == m)).collect();
        // A forked DES evaluation also reads the *base* machine that runs
        // the prefix.
        let forked = |sc: &Scenario| sc.backend == Backend::DesSim && fork.is_some();

        // 1. Grid dedup: fold each scenario onto the first earlier job
        // with the same evaluation input closure. Every backend is a pure
        // function of (params, machine spec[, base machine]).
        let same_job = |p: &Scenario, sc: &Scenario| {
            p.backend == sc.backend
                && problem[p.problem] == problem[sc.problem]
                && (!forked(sc)
                    || (machine[sc.machine].is_some() && machine[p.machine] == machine[sc.machine]))
                && p.machine_spec == sc.machine_spec
        };
        // The bucket key hashes a subset of what `same_job` compares, so
        // equal scenarios always share a bucket: the machine spec enters
        // through its id, analytic name and rate table (f64s through
        // `canon`). A bucket chains its jobs in ascending order, so the
        // first match is the lowest-index equal job.
        let bucket_key = |sc: &Scenario| {
            let mut h = DefaultHasher::new();
            let base = if forked(sc) { machine[sc.machine] } else { None };
            (sc.backend, problem[sc.problem], base).hash(&mut h);
            let m = &sc.machine_spec;
            m.id.hash(&mut h);
            m.analytic.name.hash(&mut h);
            for r in &m.analytic.rates {
                (canon(r.cells_per_pe), canon(r.mflops)).hash(&mut h);
            }
            h.finish()
        };
        // bucket key → its first job; job → the next job of its bucket.
        let mut bucket_head: HashMap<u64, usize> = HashMap::with_capacity(scenarios.len());
        let mut next_in_bucket: Vec<Option<usize>> = Vec::new();
        let mut jobs: Vec<PlanJob> = Vec::new();
        let mut assignment: Vec<usize> = Vec::with_capacity(scenarios.len());
        for (i, sc) in scenarios.iter().enumerate() {
            let existing = match bucket_head.entry(bucket_key(sc)) {
                Entry::Vacant(head) => {
                    head.insert(jobs.len());
                    None
                }
                Entry::Occupied(head) => {
                    let mut j = *head.get();
                    loop {
                        if same_job(&scenarios[jobs[j].proto], sc) {
                            break Some(j);
                        }
                        match next_in_bucket[j] {
                            Some(next) => j = next,
                            None => {
                                next_in_bucket[j] = Some(jobs.len());
                                break None;
                            }
                        }
                    }
                }
            };
            match existing {
                Some(j) => {
                    jobs[j].scenarios.push(i);
                    assignment.push(j);
                }
                None => {
                    assignment.push(jobs.len());
                    next_in_bucket.push(None);
                    jobs.push(PlanJob { proto: i, scenarios: vec![i] });
                }
            }
        }

        // 2. Fork groups over the deduped jobs (DES backend only, and
        // only when the spec defines fork semantics), one per
        // (canonical problem, canonical base machine) cell.
        let mut groups: Vec<ForkGroup> = Vec::new();
        let mut cells: HashMap<(usize, usize), usize> = HashMap::new();
        let mut singles: Vec<usize> = Vec::new();
        let mut fallbacks = 0u64;
        for (j, job) in jobs.iter().enumerate() {
            let sc = &scenarios[job.proto];
            if !forked(sc) {
                singles.push(j);
                continue;
            }
            let base = &spec.machines[sc.machine];
            // 3. Static noise-class probe: an incompatible twin cannot
            // resume from the base prefix; evaluate it standalone.
            let compatible = match (base.sim_or_err(), sc.machine_spec.sim_or_err()) {
                (Ok(b), Ok(m)) => cluster_sim::snapshot_compatible(b, m).is_ok(),
                _ => false,
            };
            if !compatible {
                fallbacks += 1;
                singles.push(j);
                continue;
            }
            let mut new_group = || {
                groups.push(ForkGroup {
                    machine: sc.machine,
                    problem: sc.problem,
                    members: vec![],
                });
                groups.len() - 1
            };
            let g = match machine[sc.machine] {
                Some(m) => *cells.entry((problem[sc.problem], m)).or_insert_with(new_group),
                None => new_group(),
            };
            groups[g].members.push(j);
        }

        ExecPlan { jobs, assignment, groups, singles, fallbacks, fork }
    }

    /// The plan's shape counters.
    pub fn stats(&self) -> PlanStats {
        PlanStats {
            scenarios: self.assignment.len(),
            jobs: self.jobs.len(),
            deduped: self.assignment.len() - self.jobs.len(),
            groups: self.groups.len(),
            fork_resumes: self.groups.iter().map(|g| g.members.len() as u64).sum(),
            fallbacks: self.fallbacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use pace_core::{AllreduceParams, StencilParams, Sweep3dParams};
    use proptest::prelude::*;
    use registry::quoted as machines;

    fn des_machine() -> registry::MachineSpec {
        registry::builtin("opteron-myrinet").unwrap()
    }

    /// The pairwise planner the hashed `ExecPlan::build` replaced: every
    /// scenario scans every earlier job, every DES job every earlier
    /// group. Kept as the differential oracle.
    fn build_pairwise(spec: &SweepSpec, scenarios: &[Scenario]) -> ExecPlan {
        let fork = spec.des_fork;
        let problem_identity: Vec<(&str, u64)> =
            spec.problems.iter().map(|p| (p.workload.kind(), p.workload.param_digest())).collect();
        let mut jobs: Vec<PlanJob> = Vec::new();
        let mut assignment: Vec<usize> = Vec::with_capacity(scenarios.len());
        for (i, sc) in scenarios.iter().enumerate() {
            let existing = jobs.iter().position(|job| {
                let p = &scenarios[job.proto];
                p.backend == sc.backend
                    && problem_identity[p.problem] == problem_identity[sc.problem]
                    && p.machine_spec == sc.machine_spec
                    && (sc.backend != Backend::DesSim
                        || fork.is_none()
                        || spec.machines[p.machine] == spec.machines[sc.machine])
            });
            match existing {
                Some(j) => {
                    jobs[j].scenarios.push(i);
                    assignment.push(j);
                }
                None => {
                    assignment.push(jobs.len());
                    jobs.push(PlanJob { proto: i, scenarios: vec![i] });
                }
            }
        }
        let mut groups: Vec<ForkGroup> = Vec::new();
        let mut singles: Vec<usize> = Vec::new();
        let mut fallbacks = 0u64;
        for (j, job) in jobs.iter().enumerate() {
            let sc = &scenarios[job.proto];
            if sc.backend != Backend::DesSim || fork.is_none() {
                singles.push(j);
                continue;
            }
            let base = &spec.machines[sc.machine];
            let compatible = match (base.sim_or_err(), sc.machine_spec.sim_or_err()) {
                (Ok(b), Ok(m)) => cluster_sim::snapshot_compatible(b, m).is_ok(),
                _ => false,
            };
            if !compatible {
                fallbacks += 1;
                singles.push(j);
                continue;
            }
            let slot = groups.iter_mut().find(|g| {
                let gsc = &scenarios[jobs[g.members[0]].proto];
                problem_identity[gsc.problem] == problem_identity[sc.problem]
                    && spec.machines[gsc.machine] == spec.machines[sc.machine]
            });
            match slot {
                Some(g) => g.members.push(j),
                None => groups.push(ForkGroup {
                    machine: sc.machine,
                    problem: sc.problem,
                    members: vec![j],
                }),
            }
        }
        ExecPlan { jobs, assignment, groups, singles, fallbacks, fork }
    }

    fn toggle_noise(machine: &mut registry::MachineSpec) {
        let sim = machine.sim.as_mut().unwrap();
        sim.noise = if sim.noise.is_none() {
            cluster_sim::NoiseModel::commodity()
        } else {
            cluster_sim::NoiseModel::none()
        };
    }

    fn with_first_rate(mflops: f64) -> registry::MachineSpec {
        let mut m = des_machine();
        m.analytic.rates[0].mflops = mflops;
        m
    }

    /// Machine-axis entries that stress the dedup key: duplicates, a
    /// file pre-scaled so that (entry 2, x1.0) equals (entry 0, x1.25),
    /// +0.0 / -0.0 rates that compare equal with different bits, a NaN
    /// rate that equals nothing, a noise-toggled twin that hashes like
    /// entry 0 but differs, an analytic-only machine and a second
    /// built-in.
    fn machine_pool(k: usize) -> registry::MachineSpec {
        match k {
            0 | 1 => des_machine(),
            2 => registry::MachineSpec::from_json(&des_machine().with_rate_scaled(1.25).to_json())
                .unwrap(),
            3 => with_first_rate(0.0),
            4 => with_first_rate(-0.0),
            5 => with_first_rate(f64::NAN),
            6 => {
                let mut m = des_machine();
                toggle_noise(&mut m);
                m
            }
            7 => registry::MachineSpec::from_analytic("p3", machines::pentium3_myrinet()),
            _ => registry::builtin("pentium3-myrinet").unwrap(),
        }
    }

    const MACHINE_POOL: usize = 9;

    /// Problem-axis entries: the first two share one workload identity
    /// under different labels.
    fn problem_pool(spec: SweepSpec, k: usize) -> SweepSpec {
        match k {
            0 => spec.problem("2x2", Sweep3dParams::speculative_20m(2, 2)),
            1 => spec.problem("2x2 again", Sweep3dParams::speculative_20m(2, 2)),
            2 => spec.problem("stencil", StencilParams::weak_scaling(2, 2)),
            _ => spec.problem("cg", AllreduceParams::cg_like(4)),
        }
    }

    fn grid(
        machines: &[usize],
        multipliers: Vec<f64>,
        problems: &[usize],
        backends: Vec<Backend>,
        fork: Option<u64>,
    ) -> SweepSpec {
        let mut spec = SweepSpec::new().rate_multipliers(multipliers).backends(backends);
        for &k in machines {
            spec = spec.machine(machine_pool(k));
        }
        for &k in problems {
            spec = problem_pool(spec, k);
        }
        spec.des_fork = fork;
        spec
    }

    #[test]
    fn hashed_plan_matches_the_pairwise_oracle_on_every_stress_entry() {
        let all: Vec<usize> = (0..MACHINE_POOL).collect();
        for fork in [None, Some(10)] {
            for backends in
                [vec![Backend::Pace, Backend::DesSim], vec![Backend::DesSim, Backend::Pace]]
            {
                let spec = grid(&all, vec![1.0, 1.25, 1.5], &[0, 1, 2, 3], backends, fork);
                let scenarios = spec.scenarios();
                let plan = ExecPlan::build(&spec, &scenarios);
                assert_eq!(plan, build_pairwise(&spec, &scenarios), "fork {fork:?}");
                assert!(plan.stats().deduped > 0);
            }
        }
    }

    #[test]
    fn key_edge_cases_fold_exactly_as_equality_says() {
        let at = |machine: usize, problem: usize, multiplier: usize| {
            (machine * 2 + problem) * 2 + multiplier
        };
        // Machines 2 (pre-scaled x1.25), 3 (+0.0), 4 (-0.0), 5 (NaN) and
        // 0; multipliers x1.0 and x1.25; two problems of one identity.
        let spec = grid(&[2, 3, 4, 5, 0], vec![1.0, 1.25], &[0, 1], vec![Backend::Pace], None);
        let scenarios = spec.scenarios();
        let plan = ExecPlan::build(&spec, &scenarios);
        assert_eq!(plan, build_pairwise(&spec, &scenarios));
        let job = |i: usize| plan.assignment[i];
        // Same workload under another label: same job.
        assert_eq!(job(at(0, 1, 0)), job(at(0, 0, 0)));
        // -0.0 folds onto +0.0.
        assert_eq!(job(at(2, 0, 1)), job(at(1, 0, 1)));
        // The NaN machine never dedups, not even with its own twin.
        assert_ne!(job(at(3, 1, 0)), job(at(3, 0, 0)));
        // Cross-cell: (machine 0, x1.25) equals the pre-scaled (machine 2,
        // x1.0) listed first, so it joins that job.
        assert_eq!(*scenarios[at(4, 0, 1)].machine_spec, *scenarios[at(0, 0, 0)].machine_spec);
        assert_eq!(job(at(4, 0, 1)), job(at(0, 0, 0)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Hashed planning is `==` to the pairwise oracle on random grids
        /// over the stress pools, with one scenario's twin optionally
        /// noise-toggled after expansion.
        #[test]
        fn hashed_plan_equals_pairwise_oracle(
            machines in prop::collection::vec(0usize..MACHINE_POOL, 1..5),
            multipliers in prop::collection::vec(prop::sample::select(vec![1.0, 1.25, 1.5, 0.8]), 1..4),
            problems in prop::collection::vec(0usize..4, 1..4),
            backends in prop::sample::select(vec![
                vec![Backend::Pace],
                vec![Backend::DesSim],
                vec![Backend::Pace, Backend::DesSim],
                vec![Backend::DesSim, Backend::Pace],
            ]),
            fork in prop::sample::select(vec![None, Some(10u64)]),
            toggle in any::<bool>(),
            victim in any::<usize>(),
        ) {
            let spec = grid(&machines, multipliers, &problems, backends, fork);
            let mut scenarios = spec.scenarios();
            let n = scenarios.len();
            if toggle {
                let sc = &mut scenarios[victim % n];
                if sc.machine_spec.sim.is_some() {
                    toggle_noise(Arc::make_mut(&mut sc.machine_spec));
                }
            }
            prop_assert_eq!(ExecPlan::build(&spec, &scenarios), build_pairwise(&spec, &scenarios));
        }
    }

    #[test]
    fn duplicate_grid_cells_fold_onto_one_job() {
        let m = machines::pentium3_myrinet();
        // The same machine listed twice: every cell is evaluated once.
        let spec = SweepSpec::new()
            .machine_hw(m.clone())
            .machine_hw(m)
            .rate_multipliers(vec![1.0, 1.25])
            .problem("2x2", Sweep3dParams::weak_scaling_50cubed(2, 2));
        let scenarios = spec.scenarios();
        let plan = ExecPlan::build(&spec, &scenarios);
        let stats = plan.stats();
        assert_eq!(stats.scenarios, 4);
        assert_eq!(stats.jobs, 2, "one job per distinct (machine, multiplier)");
        assert_eq!(stats.deduped, 2);
        assert_eq!(plan.groups.len(), 0, "analytic jobs never fork");
        assert_eq!(plan.singles.len(), 2);
        // Every scenario maps to a job whose prototype shares its inputs.
        for (i, &j) in plan.assignment.iter().enumerate() {
            let p = &scenarios[plan.jobs[j].proto];
            assert_eq!(p.machine_spec, scenarios[i].machine_spec);
            assert!(plan.jobs[j].scenarios.contains(&i));
        }
    }

    #[test]
    fn rate_what_ifs_share_one_fork_group_per_cell() {
        let spec = SweepSpec::new()
            .machine(des_machine())
            .rate_multipliers(vec![1.0, 1.25, 1.5])
            .problem("2x2", Sweep3dParams::speculative_20m(2, 2))
            .problem("2x4", Sweep3dParams::speculative_20m(2, 4))
            .backends(vec![Backend::DesSim])
            .des_fork(50);
        let scenarios = spec.scenarios();
        let plan = ExecPlan::build(&spec, &scenarios);
        let stats = plan.stats();
        assert_eq!(stats.jobs, 6, "no duplicates in this grid");
        assert_eq!(stats.groups, 2, "one shared prefix per (machine, problem) cell");
        assert_eq!(stats.fork_resumes, 6);
        assert_eq!(stats.fallbacks, 0);
        assert!(plan.singles.is_empty());
        for g in &plan.groups {
            assert_eq!(g.members.len(), 3, "all three multipliers share the prefix");
        }
    }

    #[test]
    fn unforked_des_jobs_stay_standalone() {
        let spec = SweepSpec::new()
            .machine(des_machine())
            .rate_multipliers(vec![1.0, 1.5])
            .problem("2x2", Sweep3dParams::speculative_20m(2, 2))
            .backends(vec![Backend::DesSim]);
        let scenarios = spec.scenarios();
        let plan = ExecPlan::build(&spec, &scenarios);
        assert!(plan.fork.is_none());
        assert_eq!(plan.groups.len(), 0);
        assert_eq!(plan.singles.len(), 2);
    }

    #[test]
    fn noise_incompatible_twins_fall_back_to_standalone_jobs() {
        let spec = SweepSpec::new()
            .machine(des_machine())
            .rate_multipliers(vec![1.0, 1.5])
            .problem("2x2", Sweep3dParams::speculative_20m(2, 2))
            .backends(vec![Backend::DesSim])
            .des_fork(25);
        let mut scenarios = spec.scenarios();
        // Hand the ×1.5 scenario a noise-toggled twin: the rate axis can
        // never produce this, but the planner must not assume so.
        toggle_noise(Arc::make_mut(&mut scenarios[1].machine_spec));
        let plan = ExecPlan::build(&spec, &scenarios);
        let stats = plan.stats();
        assert_eq!(stats.fallbacks, 1, "the toggled twin cannot share the prefix");
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.fork_resumes, 1, "only the untoggled twin resumes");
        assert_eq!(plan.singles, vec![1]);
    }

    #[test]
    fn plan_shape_is_independent_of_anything_but_the_spec() {
        let spec = SweepSpec::new()
            .machine(des_machine())
            .rate_multipliers(vec![1.0, 1.25, 1.5])
            .problem("2x2", Sweep3dParams::speculative_20m(2, 2))
            .backends(vec![Backend::Pace, Backend::DesSim])
            .des_fork(10);
        let scenarios = spec.scenarios();
        assert_eq!(ExecPlan::build(&spec, &scenarios), ExecPlan::build(&spec, &scenarios));
    }
}
