//! Network topology and the link-contention model.
//!
//! The paper's numbers come from a real CM-5, whose data network is a
//! 4-ary fat tree: processors sit at the leaves, link bandwidth doubles
//! at each level toward the roots, and messages climb to the lowest
//! common ancestor of source and destination before descending. Under
//! load, latency on that fabric grows — messages serialize onto finite
//! links and queue behind traffic already in flight — which is exactly
//! the regime hotspot-heavy benchmarks (reductions, invalidation
//! storms) exercise.
//!
//! This module adds that regime to the simulation:
//!
//! * a [`Topology`] maps node pairs onto a path of links —
//!   [`Topology::FatTree`] (CM-5-shaped, the default), plus
//!   [`Topology::Crossbar`] and [`Topology::Flat`] ablation variants;
//! * a [`Fabric`] tracks per-link occupancy as a *backlog*: cycles of
//!   serialization work accepted but not yet drained. A message pays
//!   *serialization* — `bytes / link_bandwidth`, once, at its narrowest
//!   (most serialized) hop, wormhole style — plus *queueing*: at each
//!   hop it waits out the link's current backlog, then deposits its own
//!   serialization onto it. Each node's network interface is a pair of
//!   pseudo-links (tx/rx) paying `bytes / bandwidth` at width 1 plus a
//!   fixed [`CostModel::ni_occupancy`] handling charge per message, so
//!   an NI is a contention point even on an otherwise uncontended path.
//!
//! Serialization divides once per message. With
//! `base = ceil(bytes / bandwidth)`, a link `2^k` times the base width
//! pays `ceil(base / 2^k)` — a shift, and exact, because
//! `ceil(ceil(a / b) / c) == ceil(a / (b * c))` — so no
//! `bandwidth * width` product can overflow. An NI pays
//! `ni_occupancy + base`, which is also the largest per-hop
//! serialization of the message. Fat-tree routing divides not at all: a
//! per-level group table (`(levels + 1) × nodes` u32 entries, node `x`'s
//! level-`l` group `x / arity^l`), built in [`Fabric::new`], gives the
//! lowest common level and every hop's link. Links carry only their hot
//! counters; [`Fabric::utilization`] derives their labels from the
//! table index.
//!
//! The model is **off by default**: with
//! [`CostModel::link_bandwidth_bytes_per_cycle`] `== 0` (unlimited
//! bandwidth, the [`CostModel::cm5`] default) no [`Fabric`] is built,
//! no cycles are charged, and delivery costs are byte-identical to the
//! flat per-message model. When enabled, contention cycles are charged
//! to the receiving node under [`crate::CycleCat::NetContention`], so
//! the ledger conservation invariant covers them by construction.
//!
//! Node clocks are only loosely synchronized (they drift apart between
//! barriers), so timestamps from different nodes are not directly
//! comparable. The backlog formulation is robust to that skew: a link
//! drains `t_new - t_last` cycles of backlog whenever a message carries
//! a *later* timestamp than the last one seen, and a message whose
//! clock lags simply neither drains nor pays for the skew — it queues
//! behind the accumulated serialization work only. The
//! [`CostModel::contention_window`] additionally caps the backlog any
//! single message can observe at one hop, bounding worst-case queueing.

use crate::cost::CostModel;
use crate::machine::NodeId;
use std::fmt;

/// How node pairs map onto network links.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Topology {
    /// A CM-5-style fat tree of the given arity: leaves are nodes,
    /// groups of `arity` share an up-link, and link width doubles per
    /// level toward the root. The CM-5's data network is 4-ary.
    FatTree {
        /// Children per internal switch (≥ 2).
        arity: usize,
    },
    /// A dedicated link per ordered node pair: contention arises only
    /// at the network interfaces. The "infinite fabric" ablation.
    Crossbar,
    /// One shared bus carrying all traffic. The "no fabric" ablation —
    /// an upper bound on contention.
    Flat,
}

impl Default for Topology {
    /// The CM-5's 4-ary fat tree.
    fn default() -> Topology {
        Topology::FatTree { arity: 4 }
    }
}

impl Topology {
    /// Short stable label (used in sweep CSVs).
    pub fn label(self) -> &'static str {
        match self {
            Topology::FatTree { .. } => "fat-tree",
            Topology::Crossbar => "crossbar",
            Topology::Flat => "flat",
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::FatTree { arity } => write!(f, "fat-tree/{arity}"),
            Topology::Crossbar => f.write_str("crossbar"),
            Topology::Flat => f.write_str("flat"),
        }
    }
}

/// Utilization of one link, harvested into run results and reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkUtil {
    /// Human-readable link name (e.g. `"fabric L1 g3"`, `"ni-tx n0"`).
    pub label: String,
    /// Messages that crossed the link.
    pub msgs: u64,
    /// Cycles the link spent serializing those messages.
    pub busy_cycles: u64,
    /// Cycles messages spent queued behind this link's reservations.
    pub queue_cycles: u64,
}

/// One link's backlog state and counters. Its label and serialization
/// width follow from its index in the link table (see [`Fabric`]).
#[derive(Clone, Debug, Default)]
struct Link {
    /// Undrained serialization work, in cycles.
    backlog: u64,
    /// Latest message timestamp seen; backlog drains by the timestamp
    /// advance between consecutive messages.
    last_seen: u64,
    msgs: u64,
    busy_cycles: u64,
    queue_cycles: u64,
}

/// The contention-tracking network fabric of one simulated machine.
///
/// Built only when the cost model sets a finite link bandwidth; see the
/// module docs for the charging model. The link table holds the NI
/// pseudo-links first (tx then rx per node), then the fabric links:
/// fat-tree levels in order, each level's links by child group, or the
/// crossbar's pair links by `(from, to)`, or the single bus.
#[derive(Clone, Debug)]
pub struct Fabric {
    topo: Topology,
    nodes: usize,
    bandwidth: u64,
    ni_occupancy: u64,
    window: u64,
    /// Fat-tree levels (0 for a single-node machine).
    levels: u32,
    /// Fabric-link index offset per fat-tree level (1-based levels).
    level_offsets: Vec<usize>,
    /// Fat trees only: `groups[l * nodes + x]` is node `x`'s level-`l`
    /// group, `x / arity^l`, for `l` in `0..=levels` — so a hop reads
    /// its link instead of dividing by the arity.
    groups: Vec<u32>,
    /// An upper bound on every link's counters and backlog: the
    /// serialization deposited plus the cycles queued, over all links
    /// ([`Fabric::transfer`]).
    load: u64,
    links: Vec<Link>,
}

impl Fabric {
    /// Builds the link table for `nodes` under `topo`, with serialization
    /// knobs taken from `cost`.
    ///
    /// # Panics
    /// Panics if `cost.link_bandwidth_bytes_per_cycle == 0` (an unlimited
    /// fabric has no reason to exist) or a fat-tree arity is < 2.
    pub fn new(topo: Topology, nodes: usize, cost: &CostModel) -> Fabric {
        assert!(
            cost.link_bandwidth_bytes_per_cycle > 0,
            "a contention fabric needs a finite link bandwidth"
        );
        // NI pseudo-links first: tx then rx per node.
        let mut link_count = 2 * nodes;
        let mut levels = 0u32;
        let mut level_offsets = vec![0];
        let mut groups = Vec::new();
        match topo {
            Topology::FatTree { arity } => {
                assert!(arity >= 2, "a fat tree needs arity >= 2");
                // Smallest L with arity^L >= nodes.
                let mut span = 1usize;
                while span < nodes {
                    span = span.saturating_mul(arity);
                    levels += 1;
                }
                assert!(
                    2 + 2 * levels < 1 << HOP_BITS,
                    "routes must cross fewer than 2^{HOP_BITS} links"
                );
                // Link (l, g) joins child group g (a level-(l-1) group)
                // to its level-l parent; width doubles per level.
                groups.extend(0..nodes as u32);
                for l in 1..=levels as usize {
                    let child = (l - 1) * nodes;
                    level_offsets.push(link_count);
                    link_count += groups[child + nodes - 1] as usize + 1;
                    for x in child..child + nodes {
                        groups.push((groups[x] as usize / arity) as u32);
                    }
                }
            }
            Topology::Crossbar => {
                level_offsets.push(link_count);
                link_count += nodes * nodes;
            }
            Topology::Flat => {
                level_offsets.push(link_count);
                link_count += 1;
            }
        }
        Fabric {
            topo,
            nodes,
            bandwidth: cost.link_bandwidth_bytes_per_cycle,
            ni_occupancy: cost.ni_occupancy,
            window: cost.contention_window,
            levels,
            level_offsets,
            groups,
            load: 0,
            links: vec![Link::default(); link_count],
        }
    }

    /// The topology this fabric implements.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Fat-tree levels (0 for single-node machines and flat variants).
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Total links in the table (NI pseudo-links included).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Walks the `from -> to` route — NI-tx, fabric hops, NI-rx — calling
    /// `hop(link, serialization)` for each link in order, where `base` is
    /// the message's width-1 serialization `ceil(bytes / bandwidth)`.
    /// An NI pays `ni_occupancy + base`; a width-`2^k` link pays
    /// `ceil(base / 2^k)`, a shift (module docs).
    #[inline(always)]
    fn walk(&self, from: NodeId, to: NodeId, base: u64, mut hop: impl FnMut(usize, u64)) {
        let (a, b) = (from.index(), to.index());
        let ni = self.ni_occupancy.saturating_add(base);
        hop(2 * a, ni); // ni-tx
        match self.topo {
            Topology::FatTree { .. } => {
                // Lowest common level: smallest h with equal level-h
                // groups (level 0 is the node itself). The root level is
                // one group, so h <= levels.
                let n = self.nodes;
                let mut h = 0;
                while self.groups[h * n + a] != self.groups[h * n + b] {
                    h += 1;
                }
                // Up from a, then down to b. The level-l link of node x
                // is (l, x's level-(l-1) group), of width 2^(l-1).
                for l in 1..=h {
                    let g = self.groups[(l - 1) * n + a] as usize;
                    hop(self.level_offsets[l] + g, ceil_shr(base, l - 1));
                }
                for l in (1..=h).rev() {
                    let g = self.groups[(l - 1) * n + b] as usize;
                    hop(self.level_offsets[l] + g, ceil_shr(base, l - 1));
                }
            }
            Topology::Crossbar => hop(self.level_offsets[1] + a * self.nodes + b, base),
            Topology::Flat => hop(self.level_offsets[1], base),
        }
        hop(2 * b + 1, ni); // ni-rx
    }

    /// Routes one `bytes`-sized message `from -> to` entering the
    /// network at cycle `now`, depositing serialization work onto every
    /// link on the path. Returns `(queue_cycles, serialization_cycles)`:
    /// the backlog waited out, summed over hops, and the single largest
    /// per-hop serialization (wormhole pipelining counts the narrowest
    /// hop once, not the sum) — always an NI's, `ni_occupancy + base`.
    pub fn transfer(&mut self, from: NodeId, to: NodeId, bytes: u64, now: u64) -> (u64, u64) {
        debug_assert_ne!(from, to, "self-sends never enter the network");
        let base = bytes.div_ceil(self.bandwidth);
        let ni = self.ni_occupancy.saturating_add(base);
        // Sums saturate rather than overflow under prices near
        // `u64::MAX`, but saturating every hop slows the walk. Below
        // these limits no sum of this message can reach 2^63 — a route
        // has fewer than 2^HOP_BITS hops, each depositing at most `ni`
        // and waiting at most `window`, and `load` bounds every backlog
        // and counter — so plain sums are exact.
        let queue = if (self.load | now) < 1 << 62 && ni.max(self.window) < 1 << 55 {
            let queue = self.deposit::<false>(from, to, base, now);
            self.load += (ni << HOP_BITS) + queue;
            queue
        } else {
            self.load = u64::MAX;
            self.deposit::<true>(from, to, base, now)
        };
        (queue, ni)
    }

    /// Deposits one message's serialization on every link of its route
    /// and returns the backlog it waited out, summed over hops; its sums
    /// saturate when `SATURATE`.
    #[inline(always)]
    fn deposit<const SATURATE: bool>(
        &mut self,
        from: NodeId,
        to: NodeId,
        base: u64,
        now: u64,
    ) -> u64 {
        let add = |a: u64, b: u64| if SATURATE { a.saturating_add(b) } else { a + b };
        let window = self.window;
        // Moved out while `walk` borrows the route tables.
        let mut links = std::mem::take(&mut self.links);
        let mut t = now;
        let mut queue = 0u64;
        self.walk(from, to, base, |li, ser| {
            let link = &mut links[li];
            // Backlog drains one cycle per cycle of timestamp advance.
            // A message whose clock lags the last one seen (skewed node
            // clocks) neither drains nor pays for the skew.
            if t > link.last_seen {
                link.backlog = link.backlog.saturating_sub(t - link.last_seen);
                link.last_seen = t;
            }
            let wait = link.backlog.min(window);
            link.backlog = add(link.backlog, ser);
            link.msgs += 1;
            link.busy_cycles = add(link.busy_cycles, ser);
            link.queue_cycles = add(link.queue_cycles, wait);
            queue = add(queue, wait);
            t = add(t, wait);
        });
        self.links = links;
        queue
    }

    /// The label of link `li`, derived from its place in the table.
    fn label(&self, li: usize) -> String {
        if li < 2 * self.nodes {
            let dir = ["tx", "rx"][li % 2];
            return format!("ni-{dir} n{}", li / 2);
        }
        match self.topo {
            Topology::FatTree { .. } => {
                let l = self.level_offsets.partition_point(|&off| off <= li) - 1;
                format!("fabric L{l} g{}", li - self.level_offsets[l])
            }
            Topology::Crossbar => {
                let pair = li - self.level_offsets[1];
                format!("xbar n{}->n{}", pair / self.nodes, pair % self.nodes)
            }
            Topology::Flat => "bus".to_string(),
        }
    }

    /// Per-link utilization, links with traffic only, table order
    /// (NI pairs by node, then fabric links by level/group).
    pub fn utilization(&self) -> Vec<LinkUtil> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.msgs > 0)
            .map(|(li, l)| LinkUtil {
                label: self.label(li),
                msgs: l.msgs,
                busy_cycles: l.busy_cycles,
                queue_cycles: l.queue_cycles,
            })
            .collect()
    }

    /// Zeroes backlogs and counters (clocks restart from zero between
    /// warm-up and measurement).
    pub fn reset(&mut self) {
        self.load = 0;
        self.links.fill(Link::default());
    }
}

/// Every route crosses fewer than `2^HOP_BITS` links: two NIs and at
/// most `2 × levels` fabric hops, 22 at 1,024 nodes on a binary tree.
const HOP_BITS: u32 = 6;

/// `ceil(x / 2^k)` without a division. Since
/// `ceil(ceil(a / b) / c) == ceil(a / (b * c))`, this is exactly the
/// serialization of `bytes` on a link `2^k` times the base width.
#[inline(always)]
fn ceil_shr(x: u64, k: usize) -> u64 {
    (x >> k) + u64::from(x & ((1 << k) - 1) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(bw: u64, ni: u64, window: u64) -> CostModel {
        let mut c = CostModel::cm5();
        c.link_bandwidth_bytes_per_cycle = bw;
        c.ni_occupancy = ni;
        c.contention_window = window;
        c
    }

    #[test]
    #[should_panic(expected = "finite link bandwidth")]
    fn unlimited_bandwidth_cannot_build_a_fabric() {
        Fabric::new(Topology::default(), 4, &CostModel::cm5());
    }

    #[test]
    fn fat_tree_link_table_shape() {
        // 16 nodes, arity 4: 2 levels; 4 level-1 links + ... wait, level
        // 1 has 16 child groups (each node its own level-0 group), level
        // 2 has 4. Plus 32 NI pseudo-links.
        let f = Fabric::new(Topology::FatTree { arity: 4 }, 16, &cost(4, 0, 1000));
        assert_eq!(f.levels(), 2);
        assert_eq!(f.link_count(), 32 + 16 + 4);
    }

    /// The link indices of the `from -> to` route, in hop order.
    fn route(f: &Fabric, from: u16, to: u16) -> Vec<usize> {
        let mut path = Vec::new();
        f.walk(NodeId(from), NodeId(to), 0, |li, _| path.push(li));
        path
    }

    #[test]
    fn fat_tree_routes_via_lowest_common_ancestor() {
        let mut f = Fabric::new(Topology::FatTree { arity: 4 }, 16, &cost(4, 0, 1000));
        // Same level-1 group (0 and 3): one hop up, one down.
        let path = route(&f, 0, 3);
        assert_eq!(path.len(), 4, "ni-tx, L1 up, L1 down, ni-rx");
        assert_eq!(path[0], 0, "ni-tx n0");
        assert_eq!(path[3], 7, "ni-rx n3");
        // Distant pair (0 and 15): climbs both levels.
        assert_eq!(route(&f, 0, 15).len(), 6, "ni-tx, L1, L2, L2, L1, ni-rx");
        // The two directions of one pair share fabric links.
        let fwd = route(&f, 2, 9);
        let rev = route(&f, 9, 2);
        let mid_f: Vec<usize> = fwd[1..fwd.len() - 1].to_vec();
        let mut mid_r: Vec<usize> = rev[1..rev.len() - 1].to_vec();
        mid_r.reverse();
        assert_eq!(mid_f, mid_r, "fabric path is symmetric");
        // Routing never mutates reservations.
        assert_eq!(f.transfer(NodeId(0), NodeId(3), 64, 0).0, 0);
    }

    #[test]
    fn serialization_counts_the_narrowest_hop_once() {
        // bw 4 B/cycle, 64-byte message: leaf links (width 1) need 16
        // cycles, level-2 links (width 2) need 8. Wormhole charge: 16.
        let mut f = Fabric::new(Topology::FatTree { arity: 4 }, 16, &cost(4, 0, 10_000));
        let (queue, ser) = f.transfer(NodeId(0), NodeId(15), 64, 0);
        assert_eq!(queue, 0, "empty fabric: no queueing");
        assert_eq!(ser, 16, "narrowest-hop serialization, once");
    }

    #[test]
    fn queueing_builds_behind_backlog_and_drains_with_time() {
        let mut f = Fabric::new(Topology::Flat, 4, &cost(1, 0, 100_000));
        // 32-byte messages on a 1 B/cycle bus: 32 cycles each.
        let (q1, s1) = f.transfer(NodeId(0), NodeId(1), 32, 0);
        assert_eq!((q1, s1), (0, 32));
        // Second message at the same instant queues behind the first.
        let (q2, s2) = f.transfer(NodeId(2), NodeId(3), 32, 0);
        assert_eq!((q2, s2), (32, 32));
        // 64 cycles later both deposits have drained away.
        let (q3, _) = f.transfer(NodeId(0), NodeId(3), 32, 64);
        assert_eq!(q3, 0);
    }

    #[test]
    fn lagging_clocks_neither_drain_nor_pay_for_skew() {
        let mut f = Fabric::new(Topology::Flat, 4, &cost(1, 0, 100_000));
        // A message stamped far in the future loads the bus...
        let (q1, _) = f.transfer(NodeId(0), NodeId(1), 32, 1_000_000);
        assert_eq!(q1, 0);
        // ...and one from a node whose clock lags queues behind the 32
        // cycles of deposited work — not the million cycles of skew.
        let (q2, _) = f.transfer(NodeId(2), NodeId(3), 32, 5);
        assert_eq!(q2, 32, "skew is not queueing");
    }

    #[test]
    fn contention_window_caps_observable_backlog() {
        let mut f = Fabric::new(Topology::Flat, 4, &cost(1, 0, 40));
        // Pile four 32-cycle messages onto the bus at t=0, each from a
        // fresh sender/receiver pair so only the bus contends; uncapped,
        // the last would wait 96 cycles, but the window bounds the
        // backlog any one message observes at 40.
        let mut last_q = 0;
        for i in 0..4u16 {
            let (q, _) = f.transfer(NodeId(i), NodeId((i + 1) % 4), 32, 0);
            last_q = q;
        }
        assert_eq!(last_q, 40, "queueing clamped to the window");
    }

    #[test]
    fn ni_occupancy_serializes_a_hotspot_receiver() {
        // Crossbar: dedicated pair links, so only the NIs contend. All
        // nodes hammer node 0 at t=0. A 16-byte message at 1000 B/cycle
        // costs 1 cycle of injection plus the 10-cycle handling charge.
        let mut f = Fabric::new(Topology::Crossbar, 4, &cost(1000, 10, 100_000));
        let (q1, s1) = f.transfer(NodeId(1), NodeId(0), 16, 0);
        assert_eq!((q1, s1), (0, 11), "first message pays its NI cost only");
        let (q2, _) = f.transfer(NodeId(2), NodeId(0), 16, 0);
        let (q3, _) = f.transfer(NodeId(3), NodeId(0), 16, 0);
        assert_eq!(q2, 11, "second queues behind node 0's rx NI");
        assert_eq!(q3, 22, "third waits for both predecessors");
    }

    #[test]
    fn utilization_reports_only_used_links_and_resets() {
        let mut f = Fabric::new(Topology::FatTree { arity: 4 }, 16, &cost(4, 5, 1000));
        f.transfer(NodeId(0), NodeId(3), 64, 0);
        let util = f.utilization();
        assert!(!util.is_empty());
        assert!(util.iter().any(|u| u.label == "ni-tx n0"));
        assert!(util.iter().any(|u| u.label.starts_with("fabric L1")));
        assert!(util.iter().all(|u| u.msgs > 0));
        let busy: u64 = util.iter().map(|u| u.busy_cycles).sum();
        assert!(busy > 0);
        f.reset();
        assert!(f.utilization().is_empty(), "reset clears counters");
        let (q, _) = f.transfer(NodeId(0), NodeId(3), 64, 0);
        assert_eq!(q, 0, "reset clears reservations");
    }

    #[test]
    fn topology_labels_and_default() {
        assert_eq!(Topology::default(), Topology::FatTree { arity: 4 });
        assert_eq!(Topology::default().label(), "fat-tree");
        assert_eq!(format!("{}", Topology::FatTree { arity: 4 }), "fat-tree/4");
        assert_eq!(Topology::Flat.to_string(), "flat");
        assert_eq!(Topology::Crossbar.label(), "crossbar");
    }

    #[test]
    fn single_node_machines_build_zero_level_trees() {
        let f = Fabric::new(Topology::FatTree { arity: 4 }, 1, &cost(4, 0, 0));
        assert_eq!(f.levels(), 0);
        assert_eq!(f.link_count(), 2, "just the NI pair");
    }

    #[test]
    fn binary_fat_tree_over_64_nodes_routes_the_deepest_pair() {
        let mut f = Fabric::new(Topology::FatTree { arity: 2 }, 64, &cost(1, 1, 1000));
        assert_eq!(f.levels(), 6);
        // The most distant pair exercises the deepest route.
        let (q, s) = f.transfer(NodeId(0), NodeId(63), 48, 0);
        assert_eq!(q, 0);
        assert!(s >= 1);
    }

    #[test]
    fn binary_fat_tree_over_1024_nodes_routes_every_level() {
        // The deepest tree the machine cap allows: arity 2 over
        // MAX_NODES leaves climbs 10 levels each way, plus the NI pair.
        let mut f = Fabric::new(
            Topology::FatTree { arity: 2 },
            crate::MAX_NODES,
            &cost(1, 1, 1000),
        );
        assert_eq!(f.levels(), 10);
        assert_eq!(route(&f, 0, 1023).len(), 22);
        let (q, s) = f.transfer(NodeId(0), NodeId(1023), 48, 0);
        assert_eq!(q, 0);
        assert!(s >= 1);
    }

    #[test]
    fn cm5_fat_tree_routes_at_kilonode_scale() {
        let mut f = Fabric::new(Topology::FatTree { arity: 4 }, 1000, &cost(4, 0, 1000));
        assert_eq!(f.levels(), 5);
        // Cross-root route between non-power-of-arity distant leaves.
        let (q, s) = f.transfer(NodeId(3), NodeId(997), 64, 0);
        assert_eq!(q, 0);
        assert!(s >= 1);
        // A second message right behind it queues.
        let (q2, _) = f.transfer(NodeId(3), NodeId(997), 64, 0);
        assert!(q2 > 0);
    }

    /// A test-local reference fabric: routes by dividing by the arity at
    /// every hop, keys links by label, and prices each hop as
    /// `ceil(bytes / (bandwidth * width))` with a saturating product,
    /// and saturates every sum — the textbook form `Fabric::transfer`
    /// must agree with.
    struct Reference {
        topo: Topology,
        cost: CostModel,
        links: std::collections::BTreeMap<String, [u64; 5]>,
    }

    impl Reference {
        /// `(label, width)` per hop; width 0 marks an NI.
        fn route(&self, a: usize, b: usize) -> Vec<(String, u64)> {
            let mut path = vec![(format!("ni-tx n{a}"), 0)];
            match self.topo {
                Topology::FatTree { arity } => {
                    let (mut ga, mut gb, mut h) = (a, b, 0);
                    while ga != gb {
                        (ga, gb, h) = (ga / arity, gb / arity, h + 1);
                    }
                    let hop = |x: usize, l: u32| {
                        let g = x / arity.pow(l - 1);
                        (format!("fabric L{l} g{g}"), 1u64 << (l - 1))
                    };
                    path.extend((1..=h).map(|l| hop(a, l)));
                    path.extend((1..=h).rev().map(|l| hop(b, l)));
                }
                Topology::Crossbar => path.push((format!("xbar n{a}->n{b}"), 1)),
                Topology::Flat => path.push(("bus".to_string(), 1)),
            }
            path.push((format!("ni-rx n{b}"), 0));
            path
        }

        fn transfer(&mut self, a: usize, b: usize, bytes: u64, now: u64) -> (u64, u64) {
            let bw = self.cost.link_bandwidth_bytes_per_cycle;
            let (mut t, mut queue, mut ser_max) = (now, 0u64, 0);
            for (label, width) in self.route(a, b) {
                let ser = if width == 0 {
                    self.cost.ni_occupancy.saturating_add(bytes.div_ceil(bw))
                } else {
                    bytes.div_ceil(bw.saturating_mul(width))
                };
                let [backlog, last_seen, msgs, busy, queued] = self.links.entry(label).or_default();
                if t > *last_seen {
                    *backlog = backlog.saturating_sub(t - *last_seen);
                    *last_seen = t;
                }
                let wait = (*backlog).min(self.cost.contention_window);
                *backlog = backlog.saturating_add(ser);
                *msgs += 1;
                *busy = busy.saturating_add(ser);
                *queued = queued.saturating_add(wait);
                queue = queue.saturating_add(wait);
                t = t.saturating_add(wait);
                ser_max = ser_max.max(ser);
            }
            (queue, ser_max)
        }
    }

    #[test]
    fn transfer_matches_a_per_hop_division_reference() {
        let mut rng = crate::Pcg32::new(0x1c3_fab, 7);
        let mut topos = vec![Topology::Crossbar, Topology::Flat];
        topos.extend([2, 3, 4, 8].map(|arity| Topology::FatTree { arity }));
        let huge = [1 << 62, 1 << 63, u64::MAX - 1, u64::MAX, u64::MAX / 3];
        for topo in topos {
            for nodes in [2usize, 5, 16, 17, 100, 1024] {
                for round in 0..4 {
                    // Bandwidths 1-64, then ones whose per-hop product
                    // overflows (the reference saturates).
                    let bw = if round < 3 {
                        1 + rng.below(64)
                    } else {
                        huge[rng.below(huge.len() as u64) as usize]
                    };
                    // Some rounds leave the backlog window unbounded or
                    // make the NI slow enough to outgrow the plain-sum
                    // bound mid-round or to overflow u64; all of them
                    // take the saturating sums.
                    let window = match rng.below(4) {
                        0 => u64::MAX,
                        _ => 1 + rng.below(5_000),
                    };
                    let ni = match rng.below(6) {
                        0 => 1 << 54,
                        1 => 1 << 62,
                        _ => rng.below(20),
                    };
                    let c = cost(bw, ni, window);
                    let mut f = Fabric::new(topo, nodes, &c);
                    let mut r = Reference {
                        topo,
                        cost: c,
                        links: Default::default(),
                    };
                    let mut now = 0u64;
                    for _ in 0..200 {
                        let a = rng.below(nodes as u64) as usize;
                        let b = (a + 1 + rng.below(nodes as u64 - 1) as usize) % nodes;
                        // 1 B to 1 MiB, log-uniform; clocks advance with
                        // occasional lagging (skewed) senders.
                        let span = 1 << (1 + rng.below(20));
                        let bytes = 1 + rng.below(span);
                        now += rng.below(300);
                        let at = now.saturating_sub(rng.below(4) * rng.below(2_000));
                        let got = f.transfer(NodeId(a as u16), NodeId(b as u16), bytes, at);
                        let want = r.transfer(a, b, bytes, at);
                        assert_eq!(got, want, "{topo} n={nodes} bw={bw}: {a}->{b} {bytes}B");
                    }
                    let mut got: Vec<(String, [u64; 3])> = f
                        .utilization()
                        .into_iter()
                        .map(|u| (u.label, [u.msgs, u.busy_cycles, u.queue_cycles]))
                        .collect();
                    got.sort();
                    let want: Vec<(String, [u64; 3])> = r
                        .links
                        .into_iter()
                        .map(|(label, [_, _, msgs, busy, queued])| (label, [msgs, busy, queued]))
                        .collect();
                    assert_eq!(got, want, "{topo} n={nodes} bw={bw}: link state");
                }
            }
        }
    }

    #[test]
    fn link_labels_follow_table_order() {
        let labels = |topo, nodes| -> Vec<String> {
            let mut f = Fabric::new(topo, nodes, &cost(1, 0, 1000));
            // Touch every link: all ordered pairs.
            for a in 0..nodes as u16 {
                for b in (0..nodes as u16).filter(|&b| b != a) {
                    f.transfer(NodeId(a), NodeId(b), 8, 0);
                }
            }
            f.utilization().into_iter().map(|u| u.label).collect()
        };
        let ni = |nodes: usize| -> Vec<String> {
            (0..nodes)
                .flat_map(|n| [format!("ni-tx n{n}"), format!("ni-rx n{n}")])
                .collect()
        };
        let mut want = ni(5);
        want.extend((0..5).map(|g| format!("fabric L1 g{g}")));
        want.extend((0..3).map(|g| format!("fabric L2 g{g}")));
        want.extend((0..2).map(|g| format!("fabric L3 g{g}")));
        assert_eq!(labels(Topology::FatTree { arity: 2 }, 5), want);
        let mut want = ni(3);
        for (a, b) in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)] {
            want.push(format!("xbar n{a}->n{b}"));
        }
        assert_eq!(labels(Topology::Crossbar, 3), want);
        let mut want = ni(2);
        want.push("bus".to_string());
        assert_eq!(labels(Topology::Flat, 2), want);
    }
}
