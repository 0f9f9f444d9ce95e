//! Process-level discrete-event simulation of the multilevel runtime.
//!
//! A virtual-time driver of the runtime's own [`MasterSched`], fed from an
//! event heap the way `pool_sim` feeds the pool machine: every dispatch,
//! redistribution, exclusion, orphan fallback and give-up is one of its
//! [`MasterAction`]s. The simulator only prices them: the master serializes
//! assignment and completion processing (one scheduling thread), strips and
//! results pay latency + bandwidth, and a node's tile time is the makespan
//! of a nested thread-pool simulation over the slave DAG — the same
//! two-level structure as the real system, priced by [`CostModel`]. A node
//! runs its tiles one at a time in the order their ASSIGNs arrive: one the
//! machine queued behind another (its window) waits for the node.

use crate::cost::CostModel;
use crate::pool_sim::{simulate_pool, PoolOutcome};
use crate::workload::SimWorkload;
use easyhps_core::sched::{MasterAction, MasterEvent, MasterSched, SchedParams, SendFailKind};
use easyhps_core::Trace;
use easyhps_core::{ScheduleMode, TaskDag, VertexId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Duration;

/// Cluster shape and policies for one simulated run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Computing threads per node (`threads[i]` for node `i`); the length
    /// is the number of computing nodes (the paper's `X - 1`).
    pub threads: Vec<usize>,
    /// Process-level scheduling policy.
    pub process_mode: ScheduleMode,
    /// Thread-level scheduling policy.
    pub thread_mode: ScheduleMode,
    /// Hardware calibration.
    pub cost: CostModel,
    /// Per-node speed in percent of the reference core (100 = nominal).
    /// Models heterogeneous clusters and stragglers: a node at 50 takes
    /// twice the reference time for the same tile.
    pub node_speed_pct: Vec<u32>,
    /// Virtual time at which each node crashes (`None` = healthy). It falls
    /// silent and its endpoint closes; the runtime's policy does the rest:
    /// its tile in flight is taken back when overdue, its silence excludes
    /// it after the heartbeat timeout, and an ASSIGN sent to it is rejected.
    pub node_fail_at: Vec<Option<u64>>,
    /// Fault-tolerance timeout: how long after dispatch the master presumes
    /// a silent sub-task lost. As in the runtime, it must exceed every
    /// tile's turnaround; a tile taken back on every try panics the run.
    pub task_timeout_ns: u64,
}

impl SimConfig {
    /// Uniform cluster: `nodes` computing nodes with `ct` threads each,
    /// dynamic scheduling at both levels.
    pub fn uniform(nodes: usize, ct: usize) -> Self {
        Self {
            threads: vec![ct; nodes],
            process_mode: ScheduleMode::Dynamic,
            thread_mode: ScheduleMode::Dynamic,
            cost: CostModel::tianhe1a(),
            node_speed_pct: vec![100; nodes],
            node_fail_at: vec![None; nodes],
            task_timeout_ns: SchedParams::default().task_timeout_ns(),
        }
    }

    /// Set node `node` to run at `pct`% of nominal speed.
    pub fn node_speed(mut self, node: usize, pct: u32) -> Self {
        assert!(pct > 0, "speed must be positive");
        self.node_speed_pct[node] = pct;
        self
    }

    /// Crash node `node` at virtual time `at_ns`.
    pub fn fail_node(mut self, node: usize, at_ns: u64) -> Self {
        self.node_fail_at[node] = Some(at_ns);
        self
    }

    /// Distribute `computing_cores` over `nodes` as evenly as possible
    /// (first nodes get the extra core), clamped to the per-node maximum
    /// of 11 the paper's hardware imposes.
    pub fn spread(nodes: usize, computing_cores: usize) -> Self {
        assert!(nodes > 0);
        let base = computing_cores / nodes;
        let extra = computing_cores % nodes;
        let threads = (0..nodes)
            .map(|i| (base + usize::from(i < extra)).clamp(1, 11))
            .collect();
        Self {
            threads,
            ..Self::uniform(nodes, 1)
        }
    }
}

/// Result of one simulated run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimResult {
    /// Virtual makespan of the whole computation.
    pub makespan_ns: u64,
    /// Sum over tiles of slave-pool busy time (pure compute).
    pub compute_ns: u64,
    /// Time each node spent executing tiles.
    pub node_busy_ns: Vec<u64>,
    /// Master occupancy (assign + completion processing).
    pub master_busy_ns: u64,
    /// Total bytes moved (inputs + results).
    pub bytes_moved: u64,
    /// Messages exchanged.
    pub msgs: u64,
    /// Master-level tiles accepted.
    pub tiles: u64,
    /// Tiles re-dispatched after a fault-tolerance timeout.
    pub redispatched: u64,
    /// Nodes excluded as dead.
    pub dead_nodes: u64,
}

impl SimResult {
    /// Makespan in (virtual) seconds.
    pub fn seconds(&self) -> f64 {
        self.makespan_ns as f64 / 1e9
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Ev {
    /// Assignment arrives at a node (and waits for it to be free).
    Assign { node: usize, task: u32 },
    /// Result arrives back at the master.
    Done { node: usize, task: u32 },
}

/// The driver's `(event, actions)` exchange with the master machine.
type MasterLog = Vec<(MasterEvent, Vec<MasterAction>)>;

/// Simulate one full run of `workload` on `config`.
pub fn simulate(workload: &SimWorkload, config: &SimConfig) -> SimResult {
    simulate_impl(workload, config, None, None)
}

/// Like [`simulate`], additionally recording a [`Trace`] of master
/// occupancy and per-node tile executions for Gantt rendering.
pub fn simulate_traced(workload: &SimWorkload, config: &SimConfig) -> (SimResult, Trace) {
    let mut trace = Trace::new();
    let res = simulate_impl(workload, config, Some(&mut trace), None);
    (res, trace)
}

fn simulate_impl(
    workload: &SimWorkload,
    config: &SimConfig,
    mut trace: Option<&mut Trace>,
    mut log: Option<&mut MasterLog>,
) -> SimResult {
    let nodes = config.threads.len();
    assert!(nodes > 0, "need at least one computing node");
    let model = &workload.model;
    let dag = model.master_dag();
    let params = SchedParams {
        task_timeout: Duration::from_nanos(config.task_timeout_ns),
        ..SchedParams::default()
    };
    let ft_poll = params.ft_poll.as_nanos() as u64;
    let mut sched = MasterSched::new(&dag, nodes, config.process_mode, &params, None);
    // Whether `node` has not yet crashed at virtual time `t`.
    let up = |node: usize, t: u64| config.node_fail_at[node].is_none_or(|f| t < f);

    let mut events: BinaryHeap<Reverse<(u64, u64, Ev)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut master_free_at = 0u64;
    // When each node is done with the tiles it already has.
    let mut node_free_at = vec![0u64; nodes];
    let mut res = SimResult {
        node_busy_ns: vec![0; nodes],
        ..SimResult::default()
    };

    // One execution of `task` on `node`: the nested slave-pool simulation.
    let slave_outcome = |task: u32, node: usize| -> PoolOutcome {
        let tile = dag.vertex(VertexId(task)).pos;
        let sdag: TaskDag = model.slave_dag(tile);
        let speed = *config.node_speed_pct.get(node).unwrap_or(&100) as u64;
        simulate_pool(
            &sdag,
            config.threads[node],
            config.thread_mode,
            |v| {
                let region = model.sub_region(tile, sdag.vertex(v).pos);
                let base = config.cost.compute_ns(workload.region_work(region));
                // Jitter keyed by the sub-task's global cell position.
                let key = (region.row_start as u64) << 32 | region.col_start as u64;
                config.cost.jittered_ns(base, key) * 100 / speed.max(1)
            },
            config.cost.thread_overhead_ns,
        )
    };

    let input_bytes = |task: u32| -> u64 {
        dag.vertex(VertexId(task))
            .data_deps
            .iter()
            .map(|d| model.tile_region(dag.vertex(*d).pos).area() * workload.cell_bytes + 20)
            .sum::<u64>()
            + 64
    };

    // Events the machine is fed next, in order: every node idle, then
    // the first scheduling pass.
    let mut inbox: VecDeque<_> = (0..nodes)
        .map(|slave| MasterEvent::Idle { slave })
        .collect();
    inbox.push_back(MasterEvent::Tick { now_ns: 0 });
    let mut next_ft = ft_poll;
    'run: loop {
        while let Some(mut ev) = inbox.pop_front() {
            // A pass runs once the master is free; the sweep costs it nothing.
            if let MasterEvent::Tick { now_ns } | MasterEvent::FtTick { now_ns } = &mut ev {
                master_free_at = master_free_at.max(*now_ns);
                *now_ns = master_free_at;
            }
            let sweep = matches!(ev, MasterEvent::FtTick { .. });
            let logged = log.is_some().then(|| ev.clone());
            let acts = sched.on_event(&dag, ev).expect("legal event sequence");
            if let (Some(log), Some(ev)) = (log.as_deref_mut(), logged) {
                log.push((ev, acts.clone()));
            }
            for a in acts {
                match a {
                    MasterAction::Assign { slave: node, task } => {
                        // Master occupancy is the scheduling decision only;
                        // the strip transfer itself is RDMA-offloaded
                        // (Infiniband) and overlaps with scheduling, paying
                        // latency + bandwidth on the wire instead.
                        let start = master_free_at;
                        master_free_at += config.cost.assign_overhead_ns;
                        res.master_busy_ns += config.cost.assign_overhead_ns;
                        if let Some(tr) = trace.as_deref_mut() {
                            tr.record("master", "a", start, master_free_at);
                        }
                        // A crashed node's endpoint is closed: the send fails.
                        if !up(node, master_free_at) {
                            inbox.push_back(MasterEvent::AssignRejected { slave: node, task });
                            // The threaded master picks again in the same pass.
                            inbox.push_back(MasterEvent::Tick {
                                now_ns: master_free_at,
                            });
                            continue;
                        }
                        let bytes = input_bytes(task);
                        res.bytes_moved += bytes;
                        res.msgs += 1;
                        let arrive = master_free_at + config.cost.transfer_ns(bytes);
                        events.push(Reverse((arrive, seq, Ev::Assign { node, task })));
                        seq += 1;
                    }
                    // Step g of the paper's master workflow: an overdue
                    // tile is cancelled and requeued.
                    MasterAction::Redispatch { .. } => {
                        // Past one per tile per node, some tile never returns in time.
                        assert!(
                            sched.counters().redispatched <= (dag.len() * nodes) as u64,
                            "the task timeout is shorter than a tile's turnaround"
                        );
                        let start = master_free_at;
                        master_free_at += config.cost.complete_overhead_ns;
                        res.master_busy_ns += config.cost.complete_overhead_ns;
                        if let Some(tr) = trace.as_deref_mut() {
                            tr.record("master", "t", start, master_free_at);
                        }
                    }
                    MasterAction::Finished => break 'run,
                    MasterAction::AllSlavesDead => {
                        panic!("every node crashed before the computation finished")
                    }
                    _ => {}
                }
            }
            // Between a sweep and its pass the runtime probes every slave
            // excluded as silent; a crashed node's closed endpoint fails it.
            if sweep {
                let now_ns = master_free_at;
                let (alive, gone) = (sched.alive(), sched.unreachable());
                let failed = (0..nodes).filter(|&n| !up(n, now_ns) && !alive[n] && !gone[n]);
                inbox.extend(failed.map(|slave| MasterEvent::SendFailed {
                    slave,
                    assign_task: None,
                    reason: SendFailKind::Unreachable,
                    now_ns,
                }));
                inbox.push_back(MasterEvent::Tick { now_ns });
            }
        }

        // Next: the earlier of the next arrival and the next FT sweep.
        if events.peek().is_some_and(|Reverse((t, ..))| *t < next_ft) {
            let Reverse((t, _, ev)) = events.pop().expect("peeked");
            match ev {
                Ev::Assign { node, task } => {
                    let outcome = slave_outcome(task, node);
                    let start = t.max(node_free_at[node]);
                    let end = start + outcome.makespan_ns;
                    node_free_at[node] = end;
                    // A node that crashes before the result leaves it
                    // never answers; the overdue sweep takes the tile back.
                    if !up(node, end) {
                        continue;
                    }
                    if let Some(tr) = trace.as_deref_mut() {
                        let pos = dag.vertex(VertexId(task)).pos;
                        tr.record(
                            format!("node{node}"),
                            format!("{}", (b'A' + (pos.diagonal() % 26) as u8) as char),
                            start,
                            end,
                        );
                    }
                    res.compute_ns += outcome.busy_ns;
                    res.node_busy_ns[node] += outcome.makespan_ns;
                    let region = model.tile_region(dag.vertex(VertexId(task)).pos);
                    let result_bytes = region.area() * workload.cell_bytes + 24;
                    res.bytes_moved += result_bytes;
                    res.msgs += 1;
                    let done_at = end + config.cost.transfer_ns(result_bytes);
                    events.push(Reverse((done_at, seq, Ev::Done { node, task })));
                    seq += 1;
                }
                Ev::Done { node, task } => {
                    // Master serializes completion processing.
                    let start = master_free_at.max(t);
                    master_free_at = start + config.cost.complete_overhead_ns;
                    res.master_busy_ns += config.cost.complete_overhead_ns;
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.record("master", "d", start, master_free_at);
                    }
                    inbox.push_back(MasterEvent::Done { slave: node, task });
                    inbox.push_back(MasterEvent::Tick { now_ns: t });
                }
            }
        } else {
            let at_ns = next_ft;
            next_ft += ft_poll;
            let heard = (0..nodes).filter(|&n| up(n, at_ns));
            inbox.extend(heard.map(|slave| MasterEvent::Heard { slave, at_ns }));
            inbox.push_back(MasterEvent::FtTick { now_ns: at_ns });
        }
    }

    // The shell publishes the machine's counters; it does not count.
    let c = sched.counters();
    (res.tiles, res.redispatched, res.dead_nodes) = (c.completed, c.redispatched, c.exclusions);
    res.makespan_ns = master_free_at;
    res
}

/// Sequential baseline: the whole problem on one core, no overheads.
pub fn sequential_ns(workload: &SimWorkload, cost: &CostModel) -> u64 {
    cost.compute_ns(workload.total_work())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_swgg() -> SimWorkload {
        SimWorkload::swgg(400, 50, 10)
    }

    #[test]
    fn runs_to_completion_and_conserves_tiles() {
        let w = small_swgg();
        let r = simulate(&w, &SimConfig::uniform(3, 4));
        assert_eq!(r.tiles, w.model.master_dag().len() as u64);
        assert!(r.makespan_ns > 0);
        assert_eq!(r.msgs, 2 * r.tiles);
    }

    #[test]
    fn deterministic() {
        let w = small_swgg();
        let a = simulate(&w, &SimConfig::uniform(2, 3));
        let b = simulate(&w, &SimConfig::uniform(2, 3));
        assert_eq!(a, b);
    }

    #[test]
    fn more_threads_help() {
        let w = small_swgg();
        let t1 = simulate(&w, &SimConfig::uniform(2, 1)).makespan_ns;
        let t4 = simulate(&w, &SimConfig::uniform(2, 4)).makespan_ns;
        let t8 = simulate(&w, &SimConfig::uniform(2, 8)).makespan_ns;
        assert!(t4 < t1);
        assert!(t8 < t4);
    }

    #[test]
    fn more_nodes_help_at_fixed_threads() {
        let w = small_swgg();
        let n1 = simulate(&w, &SimConfig::uniform(1, 4)).makespan_ns;
        let n3 = simulate(&w, &SimConfig::uniform(3, 4)).makespan_ns;
        assert!(n3 < n1);
    }

    #[test]
    fn parallel_beats_sequential_baseline() {
        let w = small_swgg();
        let seq = sequential_ns(&w, &CostModel::tianhe1a());
        let par = simulate(&w, &SimConfig::uniform(4, 8)).makespan_ns;
        assert!(par < seq, "parallel {par} vs sequential {seq}");
    }

    #[test]
    fn makespan_bounded_below_by_compute_over_cores() {
        let w = small_swgg();
        let cfg = SimConfig::uniform(3, 4);
        let r = simulate(&w, &cfg);
        let cores: u64 = cfg.threads.iter().map(|&t| t as u64).sum();
        assert!(r.makespan_ns >= r.compute_ns / cores);
    }

    #[test]
    fn bcw_is_no_faster_than_dynamic() {
        // With execution jitter a perfectly-tuned static schedule can edge
        // out the greedy pool by a hair on one instance (the paper's own
        // Fig. 17 has a few points below the 1.00 line); anything beyond a
        // few percent, or any advantage for a coarse block, is a bug.
        let w = SimWorkload::nussinov(400, 50, 10);
        let mut cfg = SimConfig::uniform(3, 4);
        let dynamic = simulate(&w, &cfg).makespan_ns;
        cfg.process_mode = ScheduleMode::BlockCyclic { block: 1 };
        cfg.thread_mode = ScheduleMode::BlockCyclic { block: 1 };
        let bcw = simulate(&w, &cfg).makespan_ns;
        assert!(
            bcw as f64 >= dynamic as f64 * 0.95,
            "tuned bcw {bcw} implausibly beats dynamic {dynamic}"
        );
        cfg.process_mode = ScheduleMode::BlockCyclic { block: 2 };
        cfg.thread_mode = ScheduleMode::BlockCyclic { block: 2 };
        let coarse = simulate(&w, &cfg).makespan_ns;
        assert!(coarse > dynamic, "coarse bcw {coarse} vs dynamic {dynamic}");
    }

    #[test]
    fn spread_distributes_and_clamps() {
        let c = SimConfig::spread(3, 10);
        assert_eq!(c.threads, vec![4, 3, 3]);
        let c = SimConfig::spread(2, 40);
        assert_eq!(
            c.threads,
            vec![11, 11],
            "clamped to the 11-thread hardware cap"
        );
        let c = SimConfig::spread(3, 1);
        assert_eq!(c.threads, vec![1, 1, 1], "at least one thread per node");
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;

    fn workload() -> SimWorkload {
        SimWorkload::swgg(400, 50, 10)
    }

    #[test]
    fn node_crash_is_survived_with_redispatch() {
        let w = workload();
        let healthy = simulate(&w, &SimConfig::uniform(3, 4));
        let mut cfg = SimConfig::uniform(3, 4);
        cfg.task_timeout_ns = 20_000_000; // 20 ms
                                          // Crash node 1 a third of the way through the healthy makespan.
        let crash = healthy.makespan_ns / 3;
        cfg = cfg.fail_node(1, crash);
        let r = simulate(&w, &cfg);
        assert_eq!(
            r.tiles,
            w.model.master_dag().len() as u64,
            "every tile still accepted"
        );
        assert!(r.redispatched >= 1, "the lost tile is taken back");
        assert!(
            r.makespan_ns >= crash + cfg.task_timeout_ns,
            "the lost tile is recomputed only after the task timeout"
        );
        // Overdue work is redistributed at the task timeout, but a node is
        // excluded only after a heartbeat timeout of silence, which this
        // run does not last.
        let silence = SchedParams::default().heartbeat_timeout_ns();
        assert!(r.makespan_ns < crash + silence, "{r:?}");
        assert_eq!(r.dead_nodes, 0);
    }

    #[test]
    fn silent_node_is_excluded_after_the_heartbeat_timeout() {
        // A crash in a run that outlasts crash + heartbeat timeout + one
        // FT sweep: here the silence excludes the node.
        let w = SimWorkload::swgg(2_000, 100, 10);
        let p = SchedParams::default();
        let crash = 5_000_000;
        let mut cfg = SimConfig::uniform(3, 4).fail_node(1, crash);
        cfg.task_timeout_ns = 20_000_000;
        let r = simulate(&w, &cfg);
        let bound = crash + p.heartbeat_timeout_ns() + p.ft_poll.as_nanos() as u64;
        assert!(r.makespan_ns > bound, "{r:?}");
        assert_eq!(r.tiles, w.model.master_dag().len() as u64);
        assert!(r.redispatched >= 1);
        assert_eq!(r.dead_nodes, 1);
        assert!(r.node_busy_ns[1] < crash, "nothing runs on a crashed node");
    }

    #[test]
    fn crash_at_time_zero_excludes_node_immediately() {
        let w = workload();
        let mut cfg = SimConfig::uniform(2, 4).fail_node(0, 0);
        cfg.task_timeout_ns = 10_000_000;
        let r = simulate(&w, &cfg);
        assert_eq!(r.dead_nodes, 1);
        assert_eq!(r.tiles, w.model.master_dag().len() as u64);
        // All real work done by the surviving node.
        assert_eq!(r.node_busy_ns[0], 0);
        assert!(r.node_busy_ns[1] > 0);
    }

    #[test]
    fn static_mode_crash_redistributes_orphans() {
        // Pinned runtime↔sim divergence: the DES used to carry its own
        // copy of the pick policy without the orphan fallback, so a
        // static-mode run with a crashed node drained its event queue
        // with the dead node's columns still pending and panicked, while
        // the real master finished the run on the survivor. Both now
        // drive the same `MasterSched` and agree.
        let w = workload();
        let mut cfg = SimConfig::uniform(2, 4).fail_node(0, 0);
        cfg.task_timeout_ns = 10_000_000;
        cfg.process_mode = ScheduleMode::ColumnWavefront;
        let r = simulate(&w, &cfg);
        assert_eq!(
            r.tiles,
            w.model.master_dag().len() as u64,
            "the survivor adopts the dead node's columns"
        );
        assert_eq!(r.dead_nodes, 1);
        assert_eq!(r.node_busy_ns[0], 0);
        assert!(r.node_busy_ns[1] > 0);
    }

    #[test]
    #[should_panic(expected = "every node crashed")]
    fn all_nodes_crashing_panics() {
        let w = workload();
        let mut cfg = SimConfig::uniform(2, 2).fail_node(0, 0).fail_node(1, 0);
        cfg.task_timeout_ns = 1_000_000;
        simulate(&w, &cfg);
    }

    #[test]
    #[should_panic(expected = "shorter than a tile's turnaround")]
    fn timeout_shorter_than_a_tile_panics_instead_of_spinning() {
        // One tile, one node, one thread: the tile runs far longer than
        // the timeout rounded up to the FT sweep, so every copy is taken
        // back before its DONE arrives and can never be accepted.
        let w = SimWorkload::swgg(1_000, 1_001, 1_001);
        assert_eq!(w.model.master_dag().len(), 1);
        let mut cfg = SimConfig::uniform(1, 1);
        cfg.task_timeout_ns = 1_000_000;
        simulate(&w, &cfg);
    }

    #[test]
    fn failure_injection_is_deterministic() {
        let w = workload();
        let mk = || {
            let mut c = SimConfig::uniform(3, 3).fail_node(2, 5_000_000);
            c.task_timeout_ns = 15_000_000;
            simulate(&w, &c)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn shorter_timeout_recovers_faster() {
        let w = workload();
        let run = |timeout: u64| {
            let mut c = SimConfig::uniform(3, 4).fail_node(1, 1_000_000);
            c.task_timeout_ns = timeout;
            simulate(&w, &c).makespan_ns
        };
        assert!(
            run(5_000_000) <= run(500_000_000),
            "long timeouts delay recovery"
        );
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;

    #[test]
    fn traced_run_matches_untraced() {
        let w = SimWorkload::swgg(300, 50, 10);
        let cfg = SimConfig::uniform(3, 4);
        let plain = simulate(&w, &cfg);
        let (traced, trace) = simulate_traced(&w, &cfg);
        assert_eq!(plain, traced, "tracing must not perturb the schedule");
        // One execution span per tile plus master chunks.
        let node_spans = trace
            .spans
            .iter()
            .filter(|s| s.lane.starts_with("node"))
            .count() as u64;
        assert_eq!(node_spans, traced.tiles);
        // Node busy time in the trace equals the result's accounting.
        for (lane, busy) in trace.busy_by_lane() {
            if let Some(idx) = lane.strip_prefix("node") {
                let idx: usize = idx.parse().unwrap();
                assert_eq!(busy, traced.node_busy_ns[idx], "{lane}");
            }
        }
        // The Gantt renders all lanes, and no node runs two tiles at once.
        let g = trace.gantt(60);
        assert!(g.contains("master"));
        assert!(g.contains("node0"));
        assert!(
            !trace.has_lane_overlaps(),
            "node executing two tiles at once:\n{g}"
        );
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;

    /// Differential test (virtual-time driver): the DES's recorded
    /// exchange with the master machine, replayed into a fresh
    /// `MasterSched`, yields the same action batches — the simulator runs
    /// the runtime's master, not a copy of it.
    #[test]
    fn cluster_driver_matches_machine_replay() {
        let w = SimWorkload::swgg(400, 50, 10);
        let dag = w.model.master_dag();
        for mode in [ScheduleMode::Dynamic, ScheduleMode::ColumnWavefront] {
            let mut healthy = SimConfig::uniform(3, 4);
            healthy.process_mode = mode;
            // Node 1 crashes halfway through its middle tile of the
            // healthy run: a crash after its last tile, or between two,
            // loses nothing.
            let (_, trace) = simulate_traced(&w, &healthy);
            let spans: Vec<_> = trace.spans.iter().filter(|s| s.lane == "node1").collect();
            let tile = spans[spans.len() / 2];
            let mid_tile = (tile.start_ns + tile.end_ns) / 2;
            for crash in [None, Some(mid_tile)] {
                let mut cfg = healthy.clone();
                cfg.task_timeout_ns = 20_000_000;
                if let Some(at) = crash {
                    cfg = cfg.fail_node(1, at);
                }
                let mut log = MasterLog::new();
                let r = simulate_impl(&w, &cfg, None, Some(&mut log));
                assert_eq!(r, simulate(&w, &cfg), "logging must not perturb the run");
                assert_eq!(r.tiles, dag.len() as u64);
                assert_eq!(
                    crash.is_some(),
                    r.redispatched > 0,
                    "{mode:?}: only the crash exercises the fault path"
                );
                let params = SchedParams {
                    task_timeout: Duration::from_nanos(cfg.task_timeout_ns),
                    ..SchedParams::default()
                };
                let mut m = MasterSched::new(&dag, 3, mode, &params, None);
                for (ev, acts) in log {
                    let replayed = m.on_event(&dag, ev.clone()).expect("log replays cleanly");
                    assert_eq!(
                        replayed, acts,
                        "{mode:?}, crash {crash:?}: diverged at {ev:?}"
                    );
                }
                assert_eq!(m.counters().completed, r.tiles);
            }
        }
    }

    /// The all-crash give-up is the machine's: the run ends on
    /// `AllSlavesDead`, after every crashed node was excluded for its
    /// silence and its probe failed — also when both die holding tiles,
    /// so no ASSIGN is ever rejected.
    #[test]
    fn all_crash_give_up_is_all_slaves_dead() {
        let w = SimWorkload::swgg(400, 50, 10);
        for at in [0, 2_000_000] {
            let mut cfg = SimConfig::uniform(2, 2).fail_node(0, at).fail_node(1, at);
            cfg.task_timeout_ns = 1_000_000;
            let mut log = MasterLog::new();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                simulate_impl(&w, &cfg, None, Some(&mut log))
            }));
            let msg = run.expect_err("the run cannot finish");
            assert_eq!(
                msg.downcast_ref::<&str>(),
                Some(&"every node crashed before the computation finished")
            );
            let (_, acts) = log.last().expect("the machine was fed");
            assert_eq!(
                acts.last(),
                Some(&MasterAction::AllSlavesDead),
                "crash at {at}"
            );
        }
    }
}

#[cfg(test)]
mod heterogeneity_tests {
    use super::*;

    #[test]
    fn slow_node_slows_the_run_proportionally_less_under_dynamic() {
        // One straggler at 40% speed: the dynamic pool routes work away
        // from it, so it degrades the makespan far less than the static
        // baseline, where the straggler's columns gate the wavefront.
        let w = SimWorkload::nussinov(1_000, 100, 10);
        let base = SimConfig::uniform(4, 4);
        let healthy_dyn = simulate(&w, &base).makespan_ns;

        let straggler_dyn = simulate(&w, &base.clone().node_speed(1, 40)).makespan_ns;

        let mut bcw = base.clone().node_speed(1, 40);
        bcw.process_mode = ScheduleMode::BlockCyclic { block: 1 };
        bcw.thread_mode = ScheduleMode::BlockCyclic { block: 1 };
        let straggler_bcw = simulate(&w, &bcw).makespan_ns;

        assert!(
            straggler_dyn > healthy_dyn,
            "a straggler always costs something"
        );
        assert!(
            straggler_bcw > straggler_dyn,
            "static scheduling must suffer more from a straggler: bcw {straggler_bcw} vs dyn {straggler_dyn}"
        );
        // Dynamic keeps the inflation well under the 2.5x a naive
        // work-split would suffer.
        assert!(straggler_dyn < healthy_dyn * 2, "dyn inflation too high");
    }

    #[test]
    fn uniform_speedup_scales_inversely() {
        let w = SimWorkload::swgg(400, 50, 10);
        let normal = simulate(&w, &SimConfig::uniform(2, 4)).makespan_ns;
        let double = {
            let cfg = SimConfig::uniform(2, 4)
                .node_speed(0, 200)
                .node_speed(1, 200);
            simulate(&w, &cfg).makespan_ns
        };
        // Compute halves; thread dispatch, network and the master don't,
        // and at this small scale those overheads are a third of the run.
        let ratio = normal as f64 / double as f64;
        assert!((1.25..=2.05).contains(&ratio), "ratio {ratio}");
    }
}
