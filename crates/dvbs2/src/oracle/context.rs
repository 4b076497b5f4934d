//! The context cache: the per-code-point and per-schedule machinery a case
//! runs against, built once per sweep and shared by its worker threads.

use super::spec::{CaseSpec, ScheduleKind};
use crate::{Dvbs2System, SystemConfig};
use dvbs2_decoder::ChainPartition;
use dvbs2_hardware::{
    hw_chain_partition, optimize_schedule, simulate_cn_phase, AccessStats, AnnealOptions,
    CnSchedule, ConnectivityRom, MemoryConfig,
};
use dvbs2_ldpc::{CodeRate, FrameSize, TannerGraph};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Immutable per-(rate, frame) machinery: building the code, graph and ROM
/// dominates a case's cost, so these are shared by every schedule/memory
/// variant of the code point.
pub(super) struct CodeContext {
    pub(super) system: Dvbs2System,
    pub(super) graph: Arc<TannerGraph>,
    pub(super) rom: ConnectivityRom,
}

impl CodeContext {
    fn new(rate: CodeRate, frame: FrameSize) -> Self {
        let system = Dvbs2System::new(SystemConfig { rate, frame, ..SystemConfig::default() })
            .expect("generator only emits defined rate/frame combinations");
        let graph = Arc::clone(system.graph());
        let rom = ConnectivityRom::build(system.params(), system.code().table());
        CodeContext { system, graph, rom }
    }
}

/// Per-(rate, frame, schedule, memory) machinery layered over a shared
/// [`CodeContext`]: the check-node schedule (annealing one is itself
/// expensive) and the memory-model stats the timing contracts compare
/// against, both under the case's [`MemoryConfig`].
pub(super) struct CaseContext {
    pub(super) code: Arc<CodeContext>,
    pub(super) schedule: CnSchedule,
    /// Check-phase stats of one iteration under this context's schedule
    /// and memory configuration.
    pub(super) check_phase: AccessStats,
    /// Hardware chain partition for this schedule — lets the software
    /// decoder replay the golden model bit for bit (`hw_chain_partition`
    /// walks every check once, so it is cached with the schedule).
    pub(super) partition: ChainPartition,
}

impl CaseContext {
    fn new(code: Arc<CodeContext>, kind: ScheduleKind, memory: MemoryConfig) -> Self {
        let schedule = match kind {
            ScheduleKind::Natural => CnSchedule::natural(&code.rom),
            // Fixed seed + bounded move budget: deterministic for a given
            // (rate, frame, memory) and cheap enough for fuzz runs while
            // still reordering rows substantially.
            ScheduleKind::Annealed => {
                optimize_schedule(
                    &code.rom,
                    memory,
                    AnnealOptions { moves: 600, ..AnnealOptions::default() },
                )
                .schedule
            }
        };
        let check_phase = simulate_cn_phase(memory, &schedule.read_sequence(), code.rom.row_len());
        let partition = hw_chain_partition(&code.rom, &schedule, &code.graph);
        CaseContext { code, schedule, check_phase, partition }
    }
}

type CodeKey = ((u32, u32), usize);
type CaseKey = (CodeKey, ScheduleKind, (usize, usize, usize));

/// Two-level cache: code contexts by (rate, frame), case contexts by
/// (rate, frame, schedule, memory). A run mixing schedules and memory
/// configurations builds each expensive code context exactly once.
#[derive(Default)]
pub(super) struct ContextCache {
    codes: Mutex<HashMap<CodeKey, Arc<CodeContext>>>,
    cases: Mutex<HashMap<CaseKey, Arc<CaseContext>>>,
}

/// The cached value under `key`, built outside the lock on a miss: Normal
/// frame contexts take a while and other workers should not serialize on
/// them (a racing duplicate build is dropped).
fn get_or_build<K: std::hash::Hash + Eq, V>(
    map: &Mutex<HashMap<K, Arc<V>>>,
    key: K,
    build: impl FnOnce() -> V,
) -> Arc<V> {
    if let Some(hit) = map.lock().expect("no panics hold the lock").get(&key) {
        return Arc::clone(hit);
    }
    let built = Arc::new(build());
    Arc::clone(map.lock().expect("no panics hold the lock").entry(key).or_insert(built))
}

impl ContextCache {
    /// The context of `case`'s (rate, frame, schedule, memory) point.
    pub(super) fn context_for(&self, case: &CaseSpec) -> Arc<CaseContext> {
        let (rate, frame, memory) = (case.rate, case.frame, case.memory);
        let code_key = (rate.fraction(), frame.codeword_len());
        let key = (code_key, case.schedule, (memory.banks, memory.write_ports, memory.fu_latency));
        get_or_build(&self.cases, key, || {
            let code = get_or_build(&self.codes, code_key, || CodeContext::new(rate, frame));
            CaseContext::new(code, case.schedule, memory)
        })
    }
}
