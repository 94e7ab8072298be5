//! The whole-matrix verification driver.
//!
//! Sweeps the supported (topology × routing × virtual-channel × fault)
//! matrix, running both static checks — exact CDG acyclicity and
//! reachability — for every combination, and collecting per-case verdicts
//! into a [`MatrixReport`] that renders to text and to `VERIFY.json`
//! ([`crate::report`]). Alongside the static fault sets, each supported
//! (topology, routing) pair also verifies fault *schedules* (`sched@...`
//! cases) epoch-differentially via [`crate::epochs`], always with the
//! paranoid from-scratch cross-check enabled.
//!
//! Verdicts are three-valued:
//!
//! * **proved** — the escape-layer CDG is acyclic and every healthy pair
//!   delivers under every schedule;
//! * **rejected** — the routing algorithm refuses the topology up front with
//!   a typed, self-describing error (e.g. a turn model on wrapped
//!   dimensions); a rejection is a correct outcome, not a violation;
//! * **failed** — a check found a violation; the case carries a concrete
//!   witness (the dependency cycle's channels, or the path to a dead
//!   end/livelock).

use crate::epochs::{verify_schedule, EpochReport};
use crate::exact::{ExactCdg, Granularity};
use crate::reach::ReachReport;
use crate::sweep::sweep_case;
use crate::witness::{describe_cycle, describe_pair_verdict};
use std::time::Instant;
use swbft_core::{run_pool, Jobs, RoutingChoice};
use torus_faults::{FaultEvent, FaultRegion, FaultSchedule, FaultSet, RegionShape};
use torus_routing::{AnyRouting, RoutingAlgorithm, Substrate, TurnRule};
use torus_topology::{AnyTopology, Direction, FatTree, Network, NodeId, TopologySpec};

/// Default per-pair state budget. Far above anything the supported shapes
/// produce (the largest full-matrix walks stay in the low thousands), so
/// hitting it indicates a blown-up relation — reported as a failure, not a
/// panic.
pub const STATE_BUDGET: usize = 1 << 20;

/// Which slice of the matrix to verify.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatrixKind {
    /// Small shapes, minimal VC configs, one fault case — the CI gate.
    Smoke,
    /// Every supported shape of the figure matrix, minimal and +1 VC
    /// configs, several enumerated fault sets.
    Full,
}

impl MatrixKind {
    /// Parses `smoke` / `full`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "smoke" => Ok(MatrixKind::Smoke),
            "full" => Ok(MatrixKind::Full),
            other => Err(format!("unknown matrix '{other}' (use smoke|full)")),
        }
    }

    /// Lower-case name ("smoke" / "full").
    pub fn name(self) -> &'static str {
        match self {
            MatrixKind::Smoke => "smoke",
            MatrixKind::Full => "full",
        }
    }
}

/// Verdict of one matrix case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Acyclicity and delivery proved.
    Proved,
    /// The routing rejects the topology with a typed error.
    Rejected,
    /// A check found a violation (witness attached).
    Failed,
}

impl Verdict {
    /// Lower-case name ("proved" / "rejected" / "failed").
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Proved => "proved",
            Verdict::Rejected => "rejected",
            Verdict::Failed => "failed",
        }
    }
}

/// Outcome of one (topology, routing, V, faults) combination.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Topology spec-string (e.g. `torus:8x2`).
    pub topology: String,
    /// Routing label (e.g. `deterministic`, `west-first`).
    pub routing: String,
    /// Virtual channels per physical channel (0 for rejected cases, which
    /// never reach VC selection).
    pub virtual_channels: usize,
    /// Fault-case label (e.g. `nf=0`, `node@12`).
    pub faults: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Vertices of the extracted escape-layer graph.
    pub cdg_vertices: usize,
    /// Edges of the extracted escape-layer graph.
    pub cdg_edges: usize,
    /// Healthy ordered pairs checked for reachability.
    pub pairs: usize,
    /// Pairs proved to deliver.
    pub delivered: usize,
    /// Total relation states enumerated.
    pub states: usize,
    /// Human-readable detail: the rejection message, or the failure reason.
    pub detail: String,
    /// Witness lines on failure (dependency-cycle channels or a path).
    pub witness: Vec<String>,
    /// Per-epoch reports for fault-schedule (`sched@...`) cases; empty for
    /// static fault cases.
    pub epochs: Vec<EpochReport>,
}

/// A complete matrix run.
#[derive(Clone, Debug)]
pub struct MatrixReport {
    /// Which matrix was run.
    pub kind: MatrixKind,
    /// Per-case outcomes, in sweep order (deterministic regardless of
    /// `jobs` — parallel runs are reassembled into enumeration order).
    pub cases: Vec<CaseResult>,
    /// Wall-clock duration of the whole sweep, in milliseconds.
    pub wall_clock_ms: u64,
    /// Worker threads the sweep ran on.
    pub jobs: usize,
}

impl MatrixReport {
    /// Number of failed cases (rejections are not violations).
    pub fn violations(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| c.verdict == Verdict::Failed)
            .count()
    }

    /// Counts per verdict: (proved, rejected, failed).
    pub fn tallies(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for c in &self.cases {
            match c.verdict {
                Verdict::Proved => t.0 += 1,
                Verdict::Rejected => t.1 += 1,
                Verdict::Failed => t.2 += 1,
            }
        }
        t
    }
}

/// The topology slice of a matrix.
pub fn matrix_topologies(kind: MatrixKind) -> Vec<TopologySpec> {
    let mut specs = vec![
        "torus:4x2",
        "mesh:4x2",
        "hypercube:3",
        "mixed:4,3o",
        "ft:4,2",
    ];
    if kind == MatrixKind::Full {
        specs.extend([
            "torus:5x2",
            "torus:4x3",
            "torus:8x2",
            "mesh:8x2",
            "mesh:3x3",
            "hypercube:4",
            "hypercube:5",
            "mixed:4,4,3o",
            "mixed:8,4o",
            "ft:2,3",
        ]);
    }
    specs
        .into_iter()
        .map(|s| {
            TopologySpec::parse(s).expect("the matrix's topology specs are literals that parse")
        })
        .collect()
}

/// The routing slice: every [`RoutingChoice`] plus the west-first and
/// north-last turn-model flavours, which prove the extractor is not
/// negative-first-specific.
pub fn matrix_routings() -> Vec<(String, AnyRouting)> {
    let mut out: Vec<(String, AnyRouting)> = RoutingChoice::ALL
        .iter()
        .map(|c| (c.label().to_string(), c.algorithm()))
        .collect();
    out.push((
        "west-first".to_string(),
        AnyRouting::adaptive(Substrate::Turn(TurnRule::WestFirst)),
    ));
    out.push((
        "west-first-det".to_string(),
        AnyRouting::deterministic(Substrate::Turn(TurnRule::WestFirst)),
    ));
    out.push((
        "north-last".to_string(),
        AnyRouting::adaptive(Substrate::Turn(TurnRule::NorthLast)),
    ));
    out.push((
        "north-last-det".to_string(),
        AnyRouting::deterministic(Substrate::Turn(TurnRule::NorthLast)),
    ));
    out
}

/// Enumerated fault cases for a topology: always the fault-free network,
/// plus deterministically chosen node-fault sets, link-fault sets and (on
/// grids) clustered fault regions that preserve connectivity (sets that
/// would disconnect the network are skipped — the delivery proof is only
/// meaningful on a connected healthy subnetwork). Fat-trees get their own
/// role-aware enumeration: failed endpoints, failed switches and failed
/// up-links.
pub fn matrix_fault_cases(net: &AnyTopology, kind: MatrixKind) -> Vec<(String, FaultSet)> {
    let mut cases = vec![("nf=0".to_string(), FaultSet::new())];
    let grid = match net {
        AnyTopology::FatTree(ft) => {
            push_fat_tree_cases(net, ft, kind, &mut cases);
            return cases;
        }
        AnyTopology::Grid(grid) => grid,
    };
    let n = grid.num_nodes() as u32;
    let picks: Vec<Vec<u32>> = match kind {
        MatrixKind::Smoke => vec![vec![n / 2]],
        MatrixKind::Full => vec![vec![n / 2], vec![n / 3], vec![n / 4, (3 * n) / 4]],
    };
    for nodes in picks {
        let mut uniq: Vec<u32> = nodes;
        uniq.sort_unstable();
        uniq.dedup();
        let mut faults = FaultSet::new();
        for &id in &uniq {
            faults.fail_node(NodeId(id));
        }
        if faults.num_faulty_nodes() == 0 || !faults.preserves_connectivity(net) {
            continue;
        }
        let label = format!(
            "nodes@{}",
            uniq.iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join("+")
        );
        if !cases.iter().any(|(l, _)| *l == label) {
            cases.push((label, faults));
        }
    }
    push_link_cases(net, kind, &mut cases);
    push_region_cases(net, grid, kind, &mut cases);
    cases
}

/// Pushes a fault case after the shared guards: non-empty, connectivity
/// preserving, label not already taken.
fn push_case(
    net: &AnyTopology,
    label: String,
    faults: FaultSet,
    cases: &mut Vec<(String, FaultSet)>,
) {
    if faults.num_faulty_nodes() == 0 && faults.num_faulty_links() == 0 {
        return;
    }
    if !faults.preserves_connectivity(net) {
        return;
    }
    if !cases.iter().any(|(l, _)| *l == label) {
        cases.push((label, faults));
    }
}

/// Adds fat-tree fault cases: a failed compute endpoint, a failed top
/// switch (the tree re-ascends via the remaining roots) and a failed leaf
/// up-link always; the full matrix adds a middle-level switch (on trees
/// deep enough to have one), an endpoint+switch pair and a two-up-link set
/// across distinct leaves. Placements that would disconnect endpoints —
/// a dead leaf switch, an endpoint's only up-link — are filtered by the
/// same connectivity guard as the grid cases.
fn push_fat_tree_cases(
    net: &AnyTopology,
    ft: &FatTree,
    kind: MatrixKind,
    cases: &mut Vec<(String, FaultSet)>,
) {
    let top_level = ft.levels() - 1;
    let last_switch = ft.switches_per_level() as u32 - 1;

    let e = ft.endpoint_id(ft.num_endpoints() as u32 / 2);
    let mut f = FaultSet::new();
    f.fail_node(e);
    push_case(net, format!("node@{}", ft.node_label(e)), f, cases);

    let top = ft.switch_id(top_level, 0);
    let mut f = FaultSet::new();
    f.fail_node(top);
    push_case(net, format!("node@{}", ft.node_label(top)), f, cases);

    let leaf = ft.switch_id(0, 0);
    if let Some(&(port, _)) = ft.parents(leaf).first() {
        let mut f = FaultSet::new();
        f.fail_link(net, leaf, port, Direction::Plus);
        push_case(
            net,
            format!("links@{}:d{port}+", ft.node_label(leaf)),
            f,
            cases,
        );
    }

    if kind == MatrixKind::Full {
        if ft.levels() >= 3 {
            let mid = ft.switch_id(1, last_switch.min(1));
            let mut f = FaultSet::new();
            f.fail_node(mid);
            push_case(net, format!("node@{}", ft.node_label(mid)), f, cases);
        }

        let mut f = FaultSet::new();
        f.fail_node(ft.endpoint_id(1));
        f.fail_node(ft.switch_id(top_level, last_switch));
        push_case(
            net,
            format!(
                "nodes@{}+{}",
                ft.node_label(ft.endpoint_id(1)),
                ft.node_label(ft.switch_id(top_level, last_switch))
            ),
            f,
            cases,
        );

        let mut f = FaultSet::new();
        let mut parts = Vec::new();
        for (i, &lf) in [leaf, ft.switch_id(0, last_switch)].iter().enumerate() {
            let parents = ft.parents(lf);
            if let Some(&(port, _)) = parents.get(i.min(parents.len().saturating_sub(1))) {
                f.fail_link(net, lf, port, Direction::Plus);
                parts.push(format!("{}:d{port}+", ft.node_label(lf)));
            }
        }
        push_case(net, format!("links@{}", parts.join("+")), f, cases);
    }
}

/// Adds link-fault cases: one mid-network failed link always, plus a
/// two-link set on the full matrix. `fail_link` silently ignores channels
/// that do not exist (open-mesh edges), so a pick that lands on a missing
/// channel produces no faults and is dropped by the `num_faulty_links`
/// guard rather than mislabelled as fault-free.
fn push_link_cases(net: &AnyTopology, kind: MatrixKind, cases: &mut Vec<(String, FaultSet)>) {
    let n = net.num_nodes() as u32;
    let last_dim = net.dims() - 1;
    let picks: Vec<Vec<(u32, usize, Direction)>> = match kind {
        MatrixKind::Smoke => vec![vec![(n / 2, 0, Direction::Plus)]],
        MatrixKind::Full => vec![
            vec![(n / 2, 0, Direction::Plus)],
            vec![
                (n / 3, 0, Direction::Plus),
                (n / 2, last_dim, Direction::Minus),
            ],
        ],
    };
    for links in picks {
        let mut faults = FaultSet::new();
        let mut parts = Vec::new();
        for &(id, dim, dir) in &links {
            faults.fail_link(net, NodeId(id), dim, dir);
            let sign = match dir {
                Direction::Plus => '+',
                Direction::Minus => '-',
            };
            parts.push(format!("{id}:d{dim}{sign}"));
        }
        if faults.num_faulty_links() == 0 || !faults.preserves_connectivity(net) {
            continue;
        }
        let label = format!("links@{}", parts.join("+"));
        if !cases.iter().any(|(l, _)| *l == label) {
            cases.push((label, faults));
        }
    }
}

/// Adds clustered (region) fault cases for topologies with at least two
/// dimensions: an L-shaped 2×2 region always, plus a solid 2×2 block on
/// the full matrix. Each shape is tried at every distinct anchor of a
/// candidate set — the centre of the plane plus all four corners (clamped
/// so the shape stays inside open dimensions) — and every valid,
/// connectivity-preserving placement with a *distinct fault set* becomes
/// its own case, labelled with its anchor. On small shapes several anchors
/// collapse onto the same node set and are deduplicated. The full matrix
/// additionally re-anchors the L-shape in planes beyond the default
/// `(0, 1)` on 3-D and higher shapes (labelled `region@L2x2@p1.2@...`), so
/// the region machinery is proved plane-general, not `(0, 1)`-specific.
/// `grid` is `net`'s backend.
fn push_region_cases(
    net: &AnyTopology,
    grid: &Network,
    kind: MatrixKind,
    cases: &mut Vec<(String, FaultSet)>,
) {
    if grid.dims() < 2 {
        return;
    }
    let l_shape = RegionShape::LShape {
        vertical: 2,
        horizontal: 2,
    };
    let shapes: Vec<(&str, RegionShape)> = match kind {
        MatrixKind::Smoke => vec![("L2x2", l_shape)],
        MatrixKind::Full => vec![
            ("L2x2", l_shape),
            (
                "rect2x2",
                RegionShape::Rect {
                    width: 2,
                    height: 2,
                },
            ),
        ],
    };
    let mut seen_fault_sets: Vec<Vec<NodeId>> = Vec::new();
    for (tag, shape) in shapes {
        push_region_anchors(net, grid, tag, shape, (0, 1), &mut seen_fault_sets, cases);
    }
    if kind == MatrixKind::Full && grid.dims() >= 3 {
        let mut planes = vec![(1, 2)];
        if grid.dims() >= 4 {
            planes.push((2, 3));
        }
        for plane in planes {
            push_region_anchors(
                net,
                grid,
                "L2x2",
                l_shape,
                plane,
                &mut seen_fault_sets,
                cases,
            );
        }
    }
}

/// Tries one region shape in one plane at the candidate anchors (plane
/// centre plus the four plane corners, clamped so the bounding box fits
/// open dimensions; on wrapped dimensions clamping is harmless — the shape
/// may overhang and wrap). Every valid, connectivity-preserving placement
/// with a distinct fault set becomes a case.
fn push_region_anchors(
    net: &AnyTopology,
    grid: &Network,
    tag: &str,
    shape: RegionShape,
    plane: (usize, usize),
    seen_fault_sets: &mut Vec<Vec<NodeId>>,
    cases: &mut Vec<(String, FaultSet)>,
) {
    let (bw, bh) = shape.bounding_box();
    let centered: Vec<u16> = (0..grid.dims())
        .map(|d| {
            let k = grid.radix(d);
            let span = if d == plane.0 {
                bw
            } else if d == plane.1 {
                bh
            } else {
                1
            };
            if grid.wraps(d) {
                (k / 2) % k
            } else {
                (k / 2).min(k.saturating_sub(span))
            }
        })
        .collect();
    let mut anchors: Vec<Vec<u16>> = vec![centered];
    for ax in [0, grid.radix(plane.0).saturating_sub(bw)] {
        for ay in [0, grid.radix(plane.1).saturating_sub(bh)] {
            let mut a = vec![0u16; grid.dims()];
            a[plane.0] = ax;
            a[plane.1] = ay;
            anchors.push(a);
        }
    }
    for anchor in anchors {
        let Ok(region) = FaultRegion::in_plane(grid, shape, plane, &anchor) else {
            continue;
        };
        let Ok(faults) = region.to_fault_set(grid) else {
            continue;
        };
        if faults.num_faulty_nodes() == 0 || !faults.preserves_connectivity(net) {
            continue;
        }
        let signature = faults.faulty_nodes_sorted();
        if seen_fault_sets.contains(&signature) {
            continue;
        }
        seen_fault_sets.push(signature);
        let label = if plane == (0, 1) {
            format!("region@{tag}@{},{}", anchor[plane.0], anchor[plane.1])
        } else {
            format!(
                "region@{tag}@p{}.{}@{},{}",
                plane.0, plane.1, anchor[plane.0], anchor[plane.1]
            )
        };
        if !cases.iter().any(|(l, _)| *l == label) {
            cases.push((label, faults));
        }
    }
}

/// Enumerated fault-schedule cases for a topology. Every matrix slice gets
/// a staged `sched@mix` (a node fault, then a link fault, each starting a
/// new epoch); the full matrix adds `sched@fence0`, which fails the
/// neighbours of node 0 one epoch at a time — on low-degree shapes the last
/// epoch isolates node 0, flipping its pairs to the `disconnected` fate.
pub fn matrix_schedule_cases(net: &AnyTopology, kind: MatrixKind) -> Vec<(String, FaultSchedule)> {
    let n = net.num_nodes() as u32;
    let mut out = Vec::new();

    // sched@mix: node n/2 at cycle 100, then a link at cycle 200. The link
    // pick scans forward from n/3 for an existing d0+ channel that does not
    // touch the already-failed node.
    let mut events = vec![(100u64, FaultEvent::Node { node: n / 2 })];
    'mix: for offset in 0..n {
        let id = (n / 3 + offset) % n;
        if id == n / 2 {
            continue;
        }
        if let Some(nb) = net.neighbor(NodeId(id), 0, Direction::Plus) {
            if nb.0 != n / 2 && nb.0 != id {
                events.push((
                    200,
                    FaultEvent::Link {
                        node: id,
                        dim: 0,
                        dir: Direction::Plus,
                    },
                ));
                break 'mix;
            }
        }
    }
    if let Ok(sched) = FaultSchedule::from_events(events) {
        out.push(("sched@mix".to_string(), sched));
    }

    if kind == MatrixKind::Full {
        // sched@fence0: the distinct neighbours of node 0, one per epoch,
        // capped at four events to bound the epoch count on high-degree
        // shapes.
        let mut fenced: Vec<u32> = Vec::new();
        for (_, nb) in net.neighbors(NodeId(0)) {
            if nb != NodeId(0) && !fenced.contains(&nb.0) {
                fenced.push(nb.0);
            }
        }
        fenced.truncate(4);
        let events: Vec<(u64, FaultEvent)> = fenced
            .into_iter()
            .enumerate()
            .map(|(i, node)| (100 * (i as u64 + 1), FaultEvent::Node { node }))
            .collect();
        if !events.is_empty() {
            if let Ok(sched) = FaultSchedule::from_events(events) {
                out.push(("sched@fence0".to_string(), sched));
            }
        }
    }
    out
}

/// Runs both static checks for one fully specified case: the
/// destination-major sweep of [`crate::sweep`] at per-VC granularity under
/// the default [`STATE_BUDGET`].
pub fn verify_case<A: RoutingAlgorithm>(
    net: &AnyTopology,
    algo: &A,
    faults: &FaultSet,
    v: usize,
) -> Result<(ExactCdg, ReachReport), crate::relation::StateBudgetExceeded> {
    sweep_case(net, algo, faults, v, Granularity::PerVc, STATE_BUDGET)
}

fn case_from_checks(
    net: &AnyTopology,
    topology: &str,
    routing: &str,
    v: usize,
    fault_label: &str,
    cdg: &ExactCdg,
    reach: &ReachReport,
) -> CaseResult {
    let mut verdict = Verdict::Proved;
    let detail;
    let mut witness = Vec::new();
    if let Some(cycle) = cdg.graph.find_cycle() {
        verdict = Verdict::Failed;
        detail = format!(
            "escape-layer channel dependency graph has a cycle of {} resources",
            cycle.len()
        );
        witness = describe_cycle(net, &cycle, v, cdg.granularity);
    } else if let Some(failure) = &reach.first_failure {
        verdict = Verdict::Failed;
        detail = format!(
            "{} of {} pairs failed to deliver ({} dead ends, {} livelocks); first: {} -> {}",
            reach.pairs - reach.delivered,
            reach.pairs,
            reach.dead_ends,
            reach.livelocks,
            net.node_label(failure.src),
            net.node_label(failure.dest),
        );
        witness = describe_pair_verdict(net, &failure.verdict);
    } else {
        detail = format!(
            "acyclic CDG ({} edges) and all {} pairs deliver",
            cdg.graph.num_edges(),
            reach.pairs
        );
    }
    CaseResult {
        topology: topology.to_string(),
        routing: routing.to_string(),
        virtual_channels: v,
        faults: fault_label.to_string(),
        verdict,
        cdg_vertices: cdg.graph.num_vertices(),
        cdg_edges: cdg.graph.num_edges(),
        pairs: reach.pairs,
        delivered: reach.delivered,
        states: cdg.states_explored,
        detail,
        witness,
        epochs: Vec::new(),
    }
}

/// One enumerated unit of matrix work: a case resolved during enumeration
/// (routing rejections are instantaneous), a pending (topology, routing, V,
/// faults) combination, or a pending fault-schedule case.
enum WorkItem {
    Resolved(CaseResult),
    Pending {
        net_idx: usize,
        topology: String,
        routing: String,
        algo: AnyRouting,
        v: usize,
        fault_label: String,
        faults: FaultSet,
    },
    PendingSchedule {
        net_idx: usize,
        topology: String,
        routing: String,
        algo: AnyRouting,
        v: usize,
        label: String,
        schedule: FaultSchedule,
    },
}

/// Enumerates every work item of the matrix in deterministic sweep order,
/// together with the built networks the pending items index into.
fn enumerate_work(kind: MatrixKind) -> (Vec<AnyTopology>, Vec<WorkItem>) {
    let mut nets = Vec::new();
    let mut items = Vec::new();
    for spec in matrix_topologies(kind) {
        let topology = spec.to_spec_string();
        let net = spec
            .build()
            .expect("the matrix's topologies are small literal shapes that build");
        let net_idx = nets.len();
        let fault_cases = matrix_fault_cases(&net, kind);
        let schedule_cases = matrix_schedule_cases(&net, kind);
        for (routing, algo) in matrix_routings() {
            if let Err(e) = algo.supported_on(&net) {
                items.push(WorkItem::Resolved(CaseResult {
                    topology: topology.clone(),
                    routing,
                    virtual_channels: 0,
                    faults: "-".to_string(),
                    verdict: Verdict::Rejected,
                    cdg_vertices: 0,
                    cdg_edges: 0,
                    pairs: 0,
                    delivered: 0,
                    states: 0,
                    detail: e.to_string(),
                    witness: Vec::new(),
                    epochs: Vec::new(),
                }));
                continue;
            }
            let min_v = algo.min_virtual_channels(&net);
            let vc_configs = match kind {
                MatrixKind::Smoke => vec![min_v],
                MatrixKind::Full => vec![min_v, min_v + 1],
            };
            for v in vc_configs {
                for (fault_label, faults) in &fault_cases {
                    items.push(WorkItem::Pending {
                        net_idx,
                        topology: topology.clone(),
                        routing: routing.clone(),
                        algo,
                        v,
                        fault_label: fault_label.clone(),
                        faults: faults.clone(),
                    });
                }
            }
            // Schedule cases sweep the same VC configs as the static cases:
            // the full matrix re-proves every epoch at min_v + 1 as well, so
            // the differential machinery is exercised off the minimal
            // dateline layout too.
            let sched_vcs = match kind {
                MatrixKind::Smoke => vec![min_v],
                MatrixKind::Full => vec![min_v, min_v + 1],
            };
            for v in sched_vcs {
                for (label, schedule) in &schedule_cases {
                    items.push(WorkItem::PendingSchedule {
                        net_idx,
                        topology: topology.clone(),
                        routing: routing.clone(),
                        algo,
                        v,
                        label: label.clone(),
                        schedule: schedule.clone(),
                    });
                }
            }
        }
        nets.push(net);
    }
    (nets, items)
}

/// Resolves one work item to its case result.
fn run_item(nets: &[AnyTopology], item: &WorkItem) -> CaseResult {
    match item {
        WorkItem::Resolved(case) => case.clone(),
        WorkItem::Pending {
            net_idx,
            topology,
            routing,
            algo,
            v,
            fault_label,
            faults,
        } => {
            let net = &nets[*net_idx];
            match verify_case(net, algo, faults, *v) {
                Ok((cdg, reach)) => {
                    case_from_checks(net, topology, routing, *v, fault_label, &cdg, &reach)
                }
                Err(e) => CaseResult {
                    topology: topology.clone(),
                    routing: routing.clone(),
                    virtual_channels: *v,
                    faults: fault_label.clone(),
                    verdict: Verdict::Failed,
                    cdg_vertices: 0,
                    cdg_edges: 0,
                    pairs: 0,
                    delivered: 0,
                    states: 0,
                    detail: e.to_string(),
                    witness: Vec::new(),
                    epochs: Vec::new(),
                },
            }
        }
        WorkItem::PendingSchedule {
            net_idx,
            topology,
            routing,
            algo,
            v,
            label,
            schedule,
        } => {
            let net = &nets[*net_idx];
            // Matrix schedule cases always run the paranoid from-scratch
            // cross-check: a divergence between the differential and the
            // scratch result is itself a verification failure.
            match verify_schedule(net, algo, schedule, *v, STATE_BUDGET, true) {
                Ok(outcome) => {
                    let failed = outcome.failed();
                    let last = outcome
                        .epochs
                        .last()
                        .expect("verify_schedule reports every epoch of FaultSchedule::epochs, which yields epoch 0 at least");
                    let witness = outcome
                        .epochs
                        .iter()
                        .find(|e| e.failure.is_some())
                        .map(|e| e.witness.clone())
                        .unwrap_or_default();
                    CaseResult {
                        topology: topology.clone(),
                        routing: routing.clone(),
                        virtual_channels: *v,
                        faults: label.clone(),
                        verdict: if failed {
                            Verdict::Failed
                        } else {
                            Verdict::Proved
                        },
                        cdg_vertices: last.cdg_vertices,
                        cdg_edges: last.cdg_edges,
                        pairs: last.pairs,
                        delivered: last.routable + last.rerouted,
                        states: outcome.total_states(),
                        detail: outcome.summary(),
                        witness,
                        epochs: outcome.epochs,
                    }
                }
                Err(e) => CaseResult {
                    topology: topology.clone(),
                    routing: routing.clone(),
                    virtual_channels: *v,
                    faults: label.clone(),
                    verdict: Verdict::Failed,
                    cdg_vertices: 0,
                    cdg_edges: 0,
                    pairs: 0,
                    delivered: 0,
                    states: 0,
                    detail: e.to_string(),
                    witness: Vec::new(),
                    epochs: Vec::new(),
                },
            }
        }
    }
}

/// Runs the whole matrix on `jobs` worker threads, calling `progress` with
/// a short line per case.
///
/// The case list is enumerated up front and, for `jobs > 1`, fanned over
/// the shared-cursor experiment pool ([`swbft_core::run_pool`]); results are
/// reassembled into enumeration order, so the case list (and every per-case
/// field of `VERIFY.json`) is identical for any thread count — only the
/// recorded wall clock and job count differ. With multiple jobs, `progress`
/// fires after the sweep completes (still in deterministic order) rather
/// than as cases finish.
pub fn run_matrix_with_options(
    kind: MatrixKind,
    jobs: usize,
    mut progress: impl FnMut(&CaseResult),
) -> MatrixReport {
    let start = Instant::now();
    let jobs = jobs.max(1);
    let (nets, items) = enumerate_work(kind);
    let cases: Vec<CaseResult> = if jobs == 1 {
        items
            .iter()
            .map(|item| {
                let case = run_item(&nets, item);
                progress(&case);
                case
            })
            .collect()
    } else {
        let cases = run_pool(items, Jobs::count(jobs), |item| run_item(&nets, item));
        for case in &cases {
            progress(case);
        }
        cases
    };
    MatrixReport {
        kind,
        cases,
        wall_clock_ms: u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX),
        jobs,
    }
}

/// Runs the whole matrix single-threaded without progress output.
pub fn run_matrix(kind: MatrixKind) -> MatrixReport {
    run_matrix_with_options(kind, 1, |_| {})
}

/// The known-cyclic negative control: dimension-order routing on a torus
/// with the virtual channels merged away (the dateline-free projection of
/// the real routing relation). Returns the case with its cycle witness —
/// the `verify` binary prints it and exits nonzero, demonstrating that the
/// extractor actually detects deadlock-capable configurations.
pub fn naive_torus_demo() -> CaseResult {
    let spec = TopologySpec::parse("torus:8x2").expect("a literal spec that parses");
    let net = spec
        .build()
        .expect("a 64-node torus fits the node-id space");
    let algo = AnyRouting::deterministic(Substrate::DimensionOrder);
    let v = algo.min_virtual_channels(&net);
    let faults = FaultSet::new();
    let cdg = crate::exact::extract_exact_cdg(
        &net,
        &algo,
        &faults,
        v,
        Granularity::PerChannel,
        STATE_BUDGET,
    )
    .expect("every pair of torus:8x2 fits STATE_BUDGET, as the matrix proves");
    let cycle = cdg
        .graph
        .find_cycle()
        .expect("merging the dateline classes closes every ring of the torus into a cycle");
    CaseResult {
        topology: spec.to_spec_string(),
        routing: "deterministic (VC classes merged)".to_string(),
        virtual_channels: v,
        faults: "nf=0".to_string(),
        verdict: Verdict::Failed,
        cdg_vertices: cdg.graph.num_vertices(),
        cdg_edges: cdg.graph.num_edges(),
        pairs: cdg.pairs,
        delivered: 0,
        states: cdg.states_explored,
        detail: format!(
            "without dateline VC classes the exact CDG closes a cycle of {} channels",
            cycle.len()
        ),
        witness: describe_cycle(&net, &cycle, v, Granularity::PerChannel),
        epochs: Vec::new(),
    }
}
