//! Per-run op pricing memo for the engines' hot loops.
//!
//! Within one run the base duration of a `Compute` op is a pure function
//! of its `(flops, working_set)` constants and a message's network costs
//! are a pure function of its size: the machine and the SMP sharer count
//! are fixed for the run. (This is the paper's coarse-kernel point, §4.3:
//! the achieved rate depends on the per-PE working set only.) A SWEEP3D
//! trace has a few dozen such keys across millions of ops, so
//! `OpPricer` prices each key once into a small direct-mapped table
//! and serves repeats from it instead of re-running the log-space
//! rate-curve interpolation and the Eq. 3 curves per op.
//!
//! Keys compare by exact bit pattern (`flops.to_bits()`, `working_set`,
//! `bytes`) and a miss calls the unchanged model functions, so every
//! duration is bit-identical to calling [`CpuModel::compute_time`] and
//! the [`NetworkModel`] curves directly — which
//! [`crate::reference::ReferenceEngine`] still does, as the oracle.
//!
//! [`CpuModel::compute_time`]: crate::cpu::CpuModel::compute_time
//! [`NetworkModel`]: crate::network::NetworkModel

use crate::machine::MachineSpec;
use crate::time::SimTime;

/// Slots in each of the op-pricing memo's two direct-mapped tables (a power
/// of two). A key that maps to an occupied slot evicts its occupant.
pub const PRICER_SLOTS: usize = 16;

/// Every network cost of one message size, priced together on a miss.
#[derive(Clone, Copy)]
pub(crate) struct NetCost {
    /// CPU time of the send call ([`NetworkModel::sender_overhead`]).
    ///
    /// [`NetworkModel::sender_overhead`]: crate::network::NetworkModel::sender_overhead
    pub(crate) send_overhead: SimTime,
    /// Span the sender NIC is busy with the message.
    pub(crate) serialization: SimTime,
    /// One-way wire time.
    pub(crate) wire: SimTime,
    /// CPU time of the receive call once the message is available.
    pub(crate) recv_overhead: SimTime,
}

/// A memo of op durations for one machine and sharer count. Build one
/// per scheduler invocation from the machine that invocation runs on —
/// never carry one across a machine swap (see the engine module docs).
pub(crate) struct OpPricer<'m> {
    machine: &'m MachineSpec,
    sharers: usize,
    compute: [Option<(u64, usize, SimTime)>; PRICER_SLOTS],
    net: [Option<(usize, NetCost)>; PRICER_SLOTS],
}

impl<'m> OpPricer<'m> {
    /// An empty memo pricing ops on `machine` with `sharers` processors
    /// active on each shared memory system.
    pub(crate) fn new(machine: &'m MachineSpec, sharers: usize) -> Self {
        OpPricer { machine, sharers, compute: [None; PRICER_SLOTS], net: [None; PRICER_SLOTS] }
    }

    /// [`CpuModel::compute_time`] of `flops` on `working_set` (before
    /// noise), memoised.
    ///
    /// [`CpuModel::compute_time`]: crate::cpu::CpuModel::compute_time
    #[inline]
    pub(crate) fn compute_time(&mut self, flops: f64, working_set: usize) -> SimTime {
        let bits = flops.to_bits();
        let slot = &mut self.compute[slot_of(bits ^ (working_set as u64).rotate_left(32))];
        match *slot {
            Some((b, ws, t)) if b == bits && ws == working_set => t,
            _ => {
                let t = self.machine.cpu.compute_time(flops, working_set, self.sharers);
                *slot = Some((bits, working_set, t));
                t
            }
        }
    }

    /// The network costs of a `bytes`-sized message, memoised.
    #[inline]
    pub(crate) fn net(&mut self, bytes: usize) -> NetCost {
        let slot = &mut self.net[slot_of(bytes as u64)];
        match *slot {
            Some((b, cost)) if b == bytes => cost,
            _ => {
                let net = &self.machine.network;
                let cost = NetCost {
                    send_overhead: net.sender_overhead(bytes),
                    serialization: net.serialization_time(bytes),
                    wire: net.wire_time(bytes),
                    recv_overhead: net.receiver_overhead(bytes),
                };
                *slot = Some((bytes, cost));
                cost
            }
        }
    }
}

/// Fibonacci hashing: the top bits of a multiplicative hash index the
/// table, so keys differing only in low bits still spread.
#[inline]
fn slot_of(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - PRICER_SLOTS.trailing_zeros())) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CpuModel, RatePoint};
    use crate::network::NetworkModel;

    fn machine() -> MachineSpec {
        let mut m = MachineSpec::ideal(100.0);
        m.cpu = CpuModel::with_curve(
            "curvy",
            vec![
                RatePoint { bytes: 32.0 * 1024.0, mflops: 400.0 },
                RatePoint { bytes: 512.0 * 1024.0, mflops: 300.0 },
                RatePoint { bytes: 8.0 * 1024.0 * 1024.0, mflops: 250.0 },
                RatePoint { bytes: 64.0 * 1024.0 * 1024.0, mflops: 200.0 },
            ],
            0.2,
        );
        m.network = NetworkModel::from_link(10.0, 250.0, 2.0, 8192.0);
        m
    }

    #[test]
    fn hits_misses_and_evictions_match_the_models() {
        let m = machine();
        let mut pricer = OpPricer::new(&m, 4);
        // Far more keys than slots, visited twice so the second pass
        // mixes hits with evicted-and-repriced slots.
        for _ in 0..2 {
            for i in 0..4 * PRICER_SLOTS {
                let flops = 1e3 * (i % 7) as f64 + 0.5 * i as f64;
                let ws = (i * 4099) % (1 << 27);
                assert_eq!(pricer.compute_time(flops, ws), m.cpu.compute_time(flops, ws, 4));
                let bytes = i * 1021;
                let cost = pricer.net(bytes);
                assert_eq!(cost.send_overhead, m.network.sender_overhead(bytes));
                assert_eq!(cost.serialization, m.network.serialization_time(bytes));
                assert_eq!(cost.wire, m.network.wire_time(bytes));
                assert_eq!(cost.recv_overhead, m.network.receiver_overhead(bytes));
            }
        }
    }

    #[test]
    #[should_panic]
    fn negative_flops_panic_as_in_the_model() {
        let m = machine();
        let mut pricer = OpPricer::new(&m, 1);
        pricer.compute_time(1.0, 0);
        pricer.compute_time(-1.0, 0);
    }
}
