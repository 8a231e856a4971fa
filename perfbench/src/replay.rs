//! Layer replays for the traced run. Each feeds one workload's inputs
//! into one crate's public API, inside spans, so that layer's cost shows
//! without instrumenting the engine:
//!
//! * `ibis-simcore`: `EventQueue::push/pop` at the run's queue depth;
//! * `ibis-storage`: `DeviceSpec::build` → device submit/complete, and the
//!   `PsLink` ingress model;
//! * `ibis-core`: `Policy::build` → `IoScheduler` submit/dispatch/complete/
//!   tick, and `BrokerTree` report/complete-round/replies;
//! * `ibis-dfs`: `Namenode::create_file/allocate_block`;
//! * `ibis-mapreduce`: `JobManager` submit/assign/finish in the engine's
//!   two-pass local-then-remote order.

use crate::spans::Recorder;
use crate::workloads::Inputs;
use ibis_cluster::DeviceSpec;
use ibis_core::broker_tree::{BrokerTree, BrokerTreeConfig};
use ibis_core::{AppId, Request};
use ibis_dfs::{BlockInfo, Namenode, NamenodeConfig, NodeId};
use ibis_mapreduce::{InputSpec, JobManager, TaskRef};
use ibis_simcore::rng::SimRng;
use ibis_simcore::{EventQueue, SimDuration, SimTime};
use ibis_storage::{Device, DeviceRequest, PsLink, Started};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::hint::black_box;

/// Pushes and pops `ops` events through an `EventQueue` kept at `depth`
/// pending events, with delays up to 10 ms as the engine schedules them.
pub fn event_queue(rec: &mut Recorder, depth: usize, ops: u64, seed: u64) {
    let mut rng = SimRng::new(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth.max(1) as u64 {
        q.push(SimTime::from_nanos(rng.range_u64(1, 10_000_000)), i);
    }
    rec.span("simcore.queue_push_pop", |_| {
        let mut sum = 0u64;
        for _ in 0..ops {
            let (at, ev) = q.pop().expect("the queue never drains");
            sum ^= ev;
            q.push(
                at + SimDuration::from_nanos(rng.range_u64(0, 10_000_000)),
                ev,
            );
        }
        black_box(sum);
        ((), 2 * ops)
    });
}

/// Submits `ios` requests of `chunk` bytes to a device built from `spec`,
/// `depth` outstanding at a time over `streams` sequential streams, a
/// `read_share` of them reads, completing each when the model says.
pub fn device(
    rec: &mut Recorder,
    spec: &DeviceSpec,
    chunk: u64,
    ios: u64,
    read_share: f64,
    seed: u64,
) {
    const DEPTH: u64 = 8;
    const STREAMS: u64 = 8;
    let mut dev = rec.span("storage.device_build", |_| (spec.build(seed), 1));
    let mut rng = SimRng::new(seed);
    rec.span("storage.device_submit_complete", |_| {
        let mut started: Vec<Started> = Vec::new();
        let mut due: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut now = SimTime::ZERO;
        let (mut sent, mut done) = (0u64, 0u64);
        while done < ios {
            while sent < ios && sent - done < DEPTH {
                let kind = if rng.chance(read_share) {
                    ibis_storage::IoKind::Read
                } else {
                    ibis_storage::IoKind::Write
                };
                let req = DeviceRequest {
                    id: sent,
                    kind,
                    stream: sent % STREAMS,
                    bytes: chunk,
                };
                dev.submit(req, now, &mut started);
                sent += 1;
                due.extend(started.drain(..).map(|s| Reverse((s.complete_at, s.id))));
            }
            let Reverse((at, id)) = due.pop().expect("an outstanding request is in service");
            now = at;
            dev.on_complete(id, now, &mut started);
            due.extend(started.drain(..).map(|s| Reverse((s.complete_at, s.id))));
            done += 1;
        }
        black_box(dev.stats().completed);
        ((), ios)
    });
}

/// Runs `xfers` transfers of `chunk` bytes through one processor-sharing
/// ingress link, eight at a time, firing its timers in order.
pub fn link(rec: &mut Recorder, capacity: f64, chunk: u64, xfers: u64) {
    const FLOWS: usize = 8;
    let mut link = PsLink::new(capacity);
    rec.span("storage.link_transfer", |_| {
        let mut timer = None;
        let mut now = SimTime::ZERO;
        let (mut started, mut done) = (0u64, 0u64);
        let mut finished = Vec::new();
        while done < xfers {
            while started < xfers && link.active() < FLOWS {
                timer = Some(link.start(started, chunk, now));
                started += 1;
            }
            let t = timer.take().expect("a transfer is active");
            now = t.at;
            finished.clear();
            timer = link.on_timer_into(now, t.epoch, &mut finished);
            done += finished.len() as u64;
        }
        ((), xfers)
    });
}

/// Drives one scheduler built from the workload's policy: `ios` requests
/// round-robin over the workload's apps and weights, device completions
/// 2 ms after dispatch, and a controller tick every tick period.
pub fn scheduler(
    rec: &mut Recorder,
    inputs: &Inputs,
    apps: &[(AppId, f64)],
    ios: u64,
    read_share: f64,
    seed: u64,
) {
    let mut sched = rec.span("core.sched_build", |_| (inputs.cluster.policy.build(), 1));
    for &(app, weight) in apps {
        sched.set_weight(app, weight);
    }
    let chunk = inputs.cluster.chunk;
    let mut rng = SimRng::new(seed);
    rec.span("core.sched_submit_dispatch_complete", |_| {
        let service = SimDuration::from_millis(2);
        let tick = sched.tick_period();
        let mut next_tick = tick.map(|p| SimTime::ZERO + p);
        let mut inflight: VecDeque<(Request, SimTime)> = VecDeque::new();
        let mut now = SimTime::ZERO;
        let (mut submitted, mut completed) = (0u64, 0u64);
        while completed < ios {
            if submitted < ios {
                let (app, _) = apps[submitted as usize % apps.len()];
                let kind = if rng.chance(read_share) {
                    ibis_core::IoKind::Read
                } else {
                    ibis_core::IoKind::Write
                };
                let req = Request::new(submitted, app, kind, chunk).with_submitted(now);
                sched.submit(req, now);
                submitted += 1;
            }
            while let Some(r) = sched.pop_dispatch(now) {
                inflight.push_back((r, now));
            }
            let backlog = sched.queued() > apps.len() || submitted == ios;
            if backlog || inflight.len() >= 16 {
                if let Some((r, at)) = inflight.pop_front() {
                    now = now.max(at + service);
                    sched.on_complete(r.app, r.kind, r.bytes, now - at, now);
                    completed += 1;
                } else {
                    // Nothing dispatched: let the clock reach the next tick.
                    now = next_tick.unwrap_or(now + service);
                }
            }
            if let (Some(t), Some(p)) = (next_tick, tick) {
                if now >= t {
                    sched.on_tick(now);
                    next_tick = Some(t + p);
                }
            }
        }
        black_box(sched.stats());
        ((), ios)
    });
}

/// Header and per-entry wire bytes of a coordination message, measured on
/// a throwaway tree: an empty report, then a one-entry report.
pub fn wire_sizes() -> (u64, u64) {
    let mut t = BrokerTree::new(BrokerTreeConfig::default());
    t.begin_round();
    t.report(0, &[]);
    let header = t.stats().payload_bytes;
    t.report(1, &[(AppId(1), 1)]);
    (header, t.stats().payload_bytes - 2 * header)
}

/// Runs `rounds` coordination rounds through one `BrokerTree` per device
/// class: every node reports `per_report` of the `apps` flows, the tree
/// completes the round, and every subscriber takes its reply.
pub fn broker_tree(
    rec: &mut Recorder,
    cfg: BrokerTreeConfig,
    nodes: u32,
    apps: u32,
    per_report: u32,
    rounds: u64,
) {
    let per_report = per_report.clamp(1, apps.max(1));
    let mut trees = [BrokerTree::new(cfg), BrokerTree::new(cfg)];
    let mut local: Vec<(AppId, u64)> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut replies = 0usize;
    for round in 0..rounds {
        now += SimDuration::from_secs(1);
        rec.span("core.coord_round", |_| {
            for tree in &mut trees {
                tree.begin_round();
                for node in 0..nodes {
                    local.clear();
                    let first = (u64::from(node) * u64::from(per_report) + round) % u64::from(apps);
                    local.extend(
                        (0..u64::from(per_report))
                            .map(|j| (AppId(((first + j) % u64::from(apps)) as u32 + 1), 4 << 20)),
                    );
                    tree.report(node, &local);
                }
                tree.complete_round(now);
                for i in 0..tree.subs_len() {
                    replies += tree.reply_for(i).1.len();
                }
            }
            ((), 2 * u64::from(nodes))
        });
    }
    black_box(replies);
}

/// A namenode configured as the workload's cluster configures its own.
fn namenode(inputs: &Inputs) -> Namenode {
    let c = &inputs.cluster;
    Namenode::new(NamenodeConfig {
        nodes: c.nodes,
        block_size: c.block_size,
        replication: c.replication,
        placement: c.placement.clone(),
        seed: c.seed,
        rack_size: c.rack_size,
    })
}

/// Registers the workload's input files, then allocates one output block
/// per generator map and per reduce, as the write pipeline does. Returns
/// the namenode for the job-manager replay.
pub fn dfs(rec: &mut Recorder, inputs: &Inputs) -> Namenode {
    let mut nn = namenode(inputs);
    let nodes = inputs.cluster.nodes;
    rec.span("dfs.create_file", |_| {
        let mut seen = HashSet::new();
        let mut blocks = 0;
        for spec in &inputs.jobs {
            if let InputSpec::DfsFile { name, bytes } = &spec.input {
                if seen.insert(name.clone()) {
                    blocks += nn.create_file(name, *bytes).len() as u64;
                }
            }
        }
        ((), blocks)
    });
    let outputs: u64 = inputs
        .jobs
        .iter()
        .map(|j| {
            let maps = match j.input {
                InputSpec::None { maps } => u64::from(maps),
                _ => 0,
            };
            maps + u64::from(j.reduces)
        })
        .sum();
    let block = inputs.cluster.block_size;
    rec.span("dfs.allocate_block", |_| {
        for k in 0..outputs {
            black_box(nn.allocate_block(NodeId((k % u64::from(nodes)) as u32), block));
        }
        ((), outputs)
    });
    nn
}

/// Assignment counts from the job-manager replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Placement {
    /// `try_assign_constrained` calls.
    pub calls: u64,
    /// Calls that placed a task.
    pub hits: u64,
}

/// Submits every job of the workload at once on its node count, then
/// sweeps: a local-only pass over every node, then a remote pass, each
/// filling the node's free slots; then every running task finishes and
/// the next sweep starts, until all jobs are done.
pub fn job_manager(
    rec: &mut Recorder,
    inputs: &Inputs,
    nn: &Namenode,
) -> Result<Placement, String> {
    let c = &inputs.cluster;
    let mut jm = JobManager::new(c.chunk);
    jm.set_rack_size(c.rack_size);
    rec.span("mapreduce.submit", |_| {
        for spec in &inputs.jobs {
            let blocks: Vec<BlockInfo> = match &spec.input {
                InputSpec::DfsFile { name, .. } => nn
                    .file_blocks(name)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|&b| nn.locate(b).cloned())
                    .collect(),
                _ => Vec::new(),
            };
            jm.submit(spec.clone(), blocks, SimTime::ZERO);
        }
        ((), inputs.jobs.len() as u64)
    });
    let nodes = c.nodes as usize;
    let mut cores = vec![c.cores_per_node; nodes];
    let mut mem = vec![c.memory_per_node; nodes];
    let mut running: Vec<(TaskRef, usize, u64)> = Vec::new();
    let mut placed = Placement::default();
    let mut now = SimTime::ZERO;
    while !jm.all_done() {
        for allow_remote in [false, true] {
            let calls = rec.span("mapreduce.assign_pass", |_| {
                let mut calls = 0;
                for n in 0..nodes {
                    while cores[n] > 0 {
                        calls += 1;
                        let Some(a) =
                            jm.try_assign_constrained(NodeId(n as u32), mem[n], allow_remote)
                        else {
                            break;
                        };
                        placed.hits += 1;
                        cores[n] -= 1;
                        mem[n] -= a.memory;
                        running.push((a.task, n, a.memory));
                    }
                }
                (calls, calls)
            });
            placed.calls += calls;
        }
        if running.is_empty() {
            return Err("job-manager replay: no task could be placed".to_string());
        }
        now += SimDuration::from_secs(1);
        let finishing = running.len() as u64;
        rec.span("mapreduce.finish", |_| {
            for (task, n, m) in running.drain(..) {
                black_box(jm.on_task_finished(task, now));
                cores[n] += 1;
                mem[n] += m;
            }
            ((), finishing)
        });
    }
    Ok(placed)
}
