//! Per-run op pricing against the oracle.
//!
//! The sequential and windowed engines price `Compute` durations and
//! message costs through a small direct-mapped memo (`OpPricer`), built
//! per scheduler invocation from the machine that invocation runs on.
//! The retained `ReferenceEngine` calls the CPU and network models
//! directly, so any memo bug — a stale slot after an eviction, a key
//! compared on only some of its fields, a memo that outlives a machine
//! swap — shows up here as a digest mismatch:
//!
//! * random programs with more distinct `(flops, working_set)` and
//!   message-size keys than the memo has slots (so slots collide and
//!   evict), edge keys (`working_set == 0`, signed-zero flops, sizes on
//!   both sides of the Eq. 3 switch point and of the rendezvous limit),
//!   on a machine with a 4-point rate curve, SMP contention and noise,
//!   through `Engine::run` and `Engine::run_parallel`;
//! * fork-swap: a run paused on machine A and resumed on machine B must
//!   price its suffix on B.

use std::collections::HashSet;

use cluster_sim::{
    Engine, MachineSpec, NetworkModel, NoiseModel, Op, Program, ReferenceEngine, PRICER_SLOTS,
};
use pace_core::workload::Workload;
use pace_core::Sweep3dParams;
use proptest::prelude::*;
use wavefront_models::dessim;

/// Eq. 3 switch point of the fuzz machine's network, in bytes.
const SWITCH: usize = 8192;
/// Rendezvous limit of the fuzz machine, in bytes.
const RENDEZVOUS: usize = 4096;

/// A 4-point rate curve, SMP contention shared by 4 processors per
/// node, commodity noise and a rendezvous limit: every input the memo
/// keys on, or must not key on, is live.
fn pricing_machine() -> MachineSpec {
    let mut m = hwbench::machines::altix_numalink_sim();
    assert!(m.cpu.rate_curve.len() >= 4 && m.cpu.smp_contention > 0.0);
    m.network = NetworkModel::from_link(1.3, 1600.0, 1.0, SWITCH as f64);
    m.noise = NoiseModel::commodity();
    m.smp_width = 4;
    m.rendezvous_bytes = Some(RENDEZVOUS);
    m.seed = 0x9A1C_E5ED;
    m
}

/// Edge compute keys: zero working set and both signed zeros (distinct
/// keys by bit pattern).
const EDGE_COMPUTES: [(f64, usize); 4] = [(0.0, 0), (-0.0, 0), (-0.0, 4096), (2.5e6, 0)];

/// Message sizes around the switch point and the rendezvous limit.
const EDGE_BYTES: [usize; 7] =
    [0, RENDEZVOUS - 1, RENDEZVOUS, RENDEZVOUS + 1, SWITCH - 1, SWITCH, SWITCH + 1];

/// Working sets spanning the rate curve: zero, below its first point
/// (64 KB), between points, at a point, and past its last (64 MB).
const WORKING_SETS: [usize; 12] = [
    0,
    17,
    1000,
    64 << 10,
    300_000,
    1 << 20,
    3_000_000,
    8 << 20,
    20_000_000,
    64 << 20,
    100_000_000,
    1 << 30,
];

/// Statically-valid, deadlock-free programs: one global op order in
/// which each message's receive directly follows its send, interleaved
/// with compute ops. Compute `i = 48a + 4b + c` takes flops level
/// `(a, c)` and working set `b`, so every key is distinct while many keys
/// share their flops or their working set — a memo that compared only
/// half a key would serve a wrong duration on a slot collision. Message
/// sizes are distinct per index and straddle the switch point. The whole
/// sequence runs twice, so the second pass revisits every key after the
/// first pass's evictions.
fn pricing_programs(
    n: usize,
    msgs: &[(usize, usize, u32, usize)],
    compute_ranks: &[usize],
) -> Vec<Program> {
    let mut programs = vec![Program::new(); n];
    for _pass in 0..2 {
        for (i, &rank) in compute_ranks.iter().enumerate() {
            let flops = 1e4 * (i % 4 + 1) as f64 + (i / 48) as f64;
            let working_set = WORKING_SETS[(i / 4) % WORKING_SETS.len()];
            programs[rank % n].push(Op::Compute { flops, working_set });
            if let Some(&(from, to, tag, raw)) = msgs.get(i) {
                let (from, to) = (from % n, to % n);
                if from != to {
                    let bytes = i * 397 + raw % 397;
                    programs[from].push(Op::Send { to, bytes, tag });
                    programs[to].push(Op::Recv { from, tag });
                }
            }
        }
        for (i, &(flops, working_set)) in EDGE_COMPUTES.iter().enumerate() {
            programs[i % n].push(Op::Compute { flops, working_set });
        }
        for (i, &bytes) in EDGE_BYTES.iter().enumerate() {
            let (from, to) = (i % n, (i + 1) % n);
            programs[from].push(Op::Send { to, bytes, tag: 9 });
            programs[to].push(Op::Recv { from, tag: 9 });
        }
        for p in programs.iter_mut() {
            p.push(Op::AllReduce { bytes: 8 });
        }
    }
    programs
}

/// Distinct compute and message-size keys of a program vector.
fn distinct_keys(programs: &[Program]) -> (usize, usize) {
    let mut compute = HashSet::new();
    let mut bytes = HashSet::new();
    for op in programs.iter().flat_map(|p| p.ops().iter()) {
        match *op {
            Op::Compute { flops, working_set } => {
                compute.insert((flops.to_bits(), working_set));
            }
            Op::Send { bytes: b, .. } => {
                bytes.insert(b);
            }
            _ => {}
        }
    }
    (compute.len(), bytes.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The memoised engines equal the model-calling oracle bit for bit,
    /// with the memo forced through collisions and evictions.
    #[test]
    fn memoised_engines_match_the_reference(
        n in 2usize..7,
        msgs in prop::collection::vec(
            (0usize..7, 0usize..7, 0u32..4, 0usize..1000),
            2 * PRICER_SLOTS..3 * PRICER_SLOTS,
        ),
        compute_ranks in prop::collection::vec(0usize..7, 2 * PRICER_SLOTS..3 * PRICER_SLOTS),
        noisy in any::<bool>(),
        threads in 2usize..4,
    ) {
        let programs = pricing_programs(n, &msgs, &compute_ranks);
        let (compute_keys, byte_keys) = distinct_keys(&programs);
        prop_assert!(compute_keys > PRICER_SLOTS, "only {} compute keys", compute_keys);
        prop_assert!(byte_keys > PRICER_SLOTS, "only {} message sizes", byte_keys);
        let mut machine = pricing_machine();
        if !noisy {
            machine.noise = NoiseModel::none();
        }
        let want = ReferenceEngine::new(&machine, programs.clone()).run().unwrap();
        let got = Engine::new(&machine, programs.clone()).run().unwrap();
        prop_assert_eq!(got.digest(), want.digest(), "sequential engine != reference");
        let par = Engine::new(&machine, programs).run_parallel(threads).unwrap();
        prop_assert_eq!(par.digest(), want.digest(), "run_parallel({}) != reference", threads);
    }
}

/// Machine A of the fork-swap tests: a noisy registry machine.
fn machine_a() -> registry::MachineSpec {
    registry::builtin("opteron-myrinet").unwrap()
}

/// Machine B: A's noise class, noise model and seed (so a fork at
/// activation 0 carries exactly the noise streams a cold run on B
/// draws), with a different rate curve, SMP contention and network.
fn machine_b() -> registry::MachineSpec {
    let mut b = machine_a();
    let sim = b.sim.as_mut().unwrap();
    let altix = hwbench::machines::altix_numalink_sim();
    sim.cpu = altix.cpu;
    sim.network = hwbench::machines::opteron_gige_sim().network;
    sim.name = "sim: opteron-myrinet noise on altix cpu / gige network".into();
    b.id = "opteron-myrinet-swapped".into();
    b
}

fn fork_workload() -> Sweep3dParams {
    let mut p = Sweep3dParams::speculative_20m(3, 4);
    p.iterations = 2;
    p
}

#[test]
fn fork_at_zero_prices_everything_on_the_resume_machine() {
    let (a, b) = (machine_a(), machine_b());
    let (a_sim, b_sim) = (a.sim.as_ref().unwrap(), b.sim.as_ref().unwrap());
    assert_ne!(a_sim.cpu, b_sim.cpu);
    assert_ne!(a_sim.network, b_sim.network);
    assert_eq!((a_sim.noise, a_sim.seed), (b_sim.noise, b_sim.seed));
    let w = fork_workload();
    let set = w.program_set(a_sim).unwrap();
    let cold_b = Engine::from_set(b_sim, set.clone()).run().unwrap();
    let paused = Engine::from_set(a_sim, set.clone()).run_paused(0).unwrap();
    assert_eq!(paused.activations(), 0);
    let forked = paused.resume_with(b_sim).unwrap();
    assert_eq!(forked.digest(), cold_b.digest(), "fork at 0 must equal a cold run on B");
    assert_eq!(forked, ReferenceEngine::new(b_sim, set.materialize_all()).run().unwrap());
}

#[test]
fn mid_run_fork_prices_the_suffix_on_the_resume_machine() {
    let (a, b) = (machine_a(), machine_b());
    let (a_sim, b_sim) = (a.sim.as_ref().unwrap(), b.sim.as_ref().unwrap());
    let w = fork_workload();
    let set = w.program_set(a_sim).unwrap();
    let total = Engine::from_set(a_sim, set.clone()).run_paused(u64::MAX).unwrap().activations();
    let cut = total / 2;
    let paused = Engine::from_set(a_sim, set.clone()).run_paused(cut).unwrap();
    assert!(!paused.is_complete());
    let on_a = paused.snapshot().resume_with(a_sim).unwrap();
    let on_b = paused.resume_with(b_sim).unwrap();
    assert_eq!(on_a, Engine::from_set(a_sim, set).run().unwrap(), "identity fork is free");
    assert_ne!(on_b.digest(), on_a.digest(), "the suffix must be priced on B");
    let want = dessim::predict_forked(&w, &a, &b, cut).unwrap();
    assert_eq!(on_b.makespan().to_bits(), want.total_secs.to_bits());
}
