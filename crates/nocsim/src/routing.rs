//! Routing tables for arbitrary router graphs.
//!
//! BookSim2's `anynet` computes shortest-path tables over an arbitrary
//! topology. We do the same, plus a deadlock-free *escape* table:
//!
//! * **Minimal deterministic** — a single lowest-index shortest-path next hop
//!   per (router, destination). Matches `anynet`; may deadlock on cyclic
//!   topologies under heavy load (kept for the routing ablation).
//! * **Minimal adaptive + escape** (default) — all shortest-path next hops
//!   are candidates on the adaptive VCs (1..V); when none is free the packet
//!   commits to the escape VC (0) routed on a BFS spanning tree (a classical
//!   up*/down* network), which is provably deadlock-free. This lets the
//!   unattended evaluation sweep run at and beyond saturation safely.
//! * **Up/down only** — everything on the spanning tree (baseline for the
//!   ablation).

use chiplet_graph::{bfs, metrics, Graph};
use std::fmt;

use crate::flit::RouterId;
use crate::heap::HeapBytes;

/// Routing algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingKind {
    /// Single deterministic shortest path (BookSim2 `anynet`-style).
    MinimalDeterministic,
    /// Minimal adaptive on VCs ≥ 1 with an up*/down* escape on VC 0.
    #[default]
    MinimalAdaptiveEscape,
    /// Spanning-tree up*/down* routing only.
    UpDownOnly,
}

impl RoutingKind {
    /// Canonical name, as accepted by the [`std::str::FromStr`] parser
    /// and by `--routing` flags / study-spec files: `deterministic`,
    /// `adaptive`, `updown`. Round-trips through `parse`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            RoutingKind::MinimalDeterministic => "deterministic",
            RoutingKind::MinimalAdaptiveEscape => "adaptive",
            RoutingKind::UpDownOnly => "updown",
        }
    }
}

impl fmt::Display for RoutingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for RoutingKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "deterministic" => Ok(RoutingKind::MinimalDeterministic),
            "adaptive" => Ok(RoutingKind::MinimalAdaptiveEscape),
            "updown" => Ok(RoutingKind::UpDownOnly),
            other => Err(format!(
                "unknown routing {other:?} (expected adaptive|deterministic|updown)"
            )),
        }
    }
}

/// Errors from routing-table construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingError {
    /// The router graph must be connected for any routing to exist.
    DisconnectedTopology,
    /// The router graph has no vertices.
    EmptyTopology,
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::DisconnectedTopology => {
                write!(f, "router topology must be connected")
            }
            RoutingError::EmptyTopology => write!(f, "router topology has no routers"),
        }
    }
}

impl std::error::Error for RoutingError {}

/// Precomputed routing tables for one topology.
///
/// Output *ports* index into the sorted neighbour list of each router, which
/// is exactly how the simulator numbers its network ports.
#[derive(Debug, Clone)]
pub struct RoutingTables {
    kind: RoutingKind,
    num_routers: usize,
    /// Row-major `dist[r * n + d]`: hop distance.
    dist: Vec<u32>,
    /// `n² + 1` offsets into `minimal`: pair `i = r * n + d` owns
    /// `minimal[minimal_start[i]..minimal_start[i + 1]]`.
    minimal_start: Vec<u32>,
    /// Every pair's output ports on minimal paths (each pair's sorted),
    /// concatenated in `r * n + d` order.
    minimal: Vec<u16>,
    /// `escape[r * n + d]`: output port toward `d` on the spanning tree
    /// (`u16::MAX` for `r == d`).
    escape: Vec<u16>,
}

impl RoutingTables {
    /// Builds tables for `g` under the chosen algorithm.
    ///
    /// # Errors
    ///
    /// * [`RoutingError::EmptyTopology`] for a graph without vertices,
    /// * [`RoutingError::DisconnectedTopology`] if some router pair has no
    ///   path.
    pub fn new(g: &Graph, kind: RoutingKind) -> Result<Self, RoutingError> {
        let n = g.num_vertices();
        if n == 0 {
            return Err(RoutingError::EmptyTopology);
        }
        if !metrics::is_connected(g) {
            return Err(RoutingError::DisconnectedTopology);
        }
        let dist = bfs::all_pairs_distances(g);
        let (minimal_start, minimal) = minimal_ports(g, &dist, |_, _| true);
        let escape = escape_ports(g, &lowest_parent_tree(g), &vec![false; n]);
        Ok(Self { kind, num_routers: n, dist, minimal_start, minimal, escape })
    }

    /// Builds tables over the *surviving* subgraph of `g`: routers with
    /// `dead_router[r]` set, and edges for which `dead_link(u, v)` returns
    /// `true`, are excluded. Unlike [`RoutingTables::new`] this never fails:
    /// an unreachable pair simply gets `u32::MAX` distance, no minimal
    /// ports, and no escape port — callers must check
    /// [`RoutingTables::reachable`] before asking for a port. Output ports
    /// keep their numbering from the *full* graph's sorted neighbour lists,
    /// matching the simulator's physical port wiring; each surviving
    /// connected component gets its own up*/down* escape tree rooted at the
    /// component's lowest live router id.
    #[must_use]
    pub fn new_degraded(
        g: &Graph,
        kind: RoutingKind,
        dead_router: &[bool],
        mut dead_link: impl FnMut(RouterId, RouterId) -> bool,
    ) -> Self {
        let n = g.num_vertices();
        assert_eq!(dead_router.len(), n, "dead_router mask length mismatch");
        // Liveness of each directed port, aligned with g.neighbors(r).
        let live_port: Vec<Vec<bool>> = (0..n)
            .map(|r| {
                g.neighbors(r)
                    .iter()
                    .map(|&u| !dead_router[r] && !dead_router[u] && !dead_link(r, u))
                    .collect()
            })
            .collect();

        // All-pairs BFS over live edges; u32::MAX marks unreachable (every
        // pair involving a dead router stays unreachable, including (r, r)).
        let mut dist = vec![u32::MAX; n * n];
        let mut queue = std::collections::VecDeque::new();
        for r in 0..n {
            if dead_router[r] {
                continue;
            }
            dist[r * n + r] = 0;
            queue.clear();
            queue.push_back(r);
            while let Some(v) = queue.pop_front() {
                let dv = dist[r * n + v];
                for (&u, &live) in g.neighbors(v).iter().zip(&live_port[v]) {
                    if live && dist[r * n + u] == u32::MAX {
                        dist[r * n + u] = dv + 1;
                        queue.push_back(u);
                    }
                }
            }
        }

        let (minimal_start, minimal) = minimal_ports(g, &dist, |r, p| live_port[r][p]);
        let escape =
            escape_ports(g, &discovery_forest(g, dead_router, &live_port), dead_router);
        Self { kind, num_routers: n, dist, minimal_start, minimal, escape }
    }

    /// `true` if a path from `r` to `d` exists in the (possibly degraded)
    /// topology these tables were built over. Tables from
    /// [`RoutingTables::new`] are fully reachable; in
    /// [`RoutingTables::new_degraded`] tables a dead router reaches nothing,
    /// not even itself.
    #[must_use]
    pub fn reachable(&self, r: RouterId, d: RouterId) -> bool {
        self.dist[r * self.num_routers + d] != u32::MAX
    }

    /// Heap bytes the tables hold: the capacities of their four arrays.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.dist.heap_bytes()
            + self.minimal_start.heap_bytes()
            + self.minimal.heap_bytes()
            + self.escape.heap_bytes()
    }

    /// The algorithm these tables were built for.
    #[must_use]
    pub fn kind(&self) -> RoutingKind {
        self.kind
    }

    /// Number of routers.
    #[must_use]
    pub fn num_routers(&self) -> usize {
        self.num_routers
    }

    /// Hop distance between two routers.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[must_use]
    pub fn distance(&self, r: RouterId, d: RouterId) -> u32 {
        self.dist[r * self.num_routers + d]
    }

    /// Output ports of `r` on minimal paths toward `d` (empty iff `r == d`).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[must_use]
    pub fn minimal_ports(&self, r: RouterId, d: RouterId) -> &[u16] {
        let i = r * self.num_routers + d;
        &self.minimal[self.minimal_start[i] as usize..self.minimal_start[i + 1] as usize]
    }

    /// Escape (spanning-tree) output port of `r` toward `d`.
    ///
    /// # Panics
    ///
    /// Panics if `r == d` or an id is out of range.
    #[must_use]
    pub fn escape_port(&self, r: RouterId, d: RouterId) -> usize {
        let p = self.escape[r * self.num_routers + d];
        assert!(p != u16::MAX, "no escape port from a router to itself");
        usize::from(p)
    }

    /// Average hop distance over ordered router pairs `r != d`.
    #[must_use]
    pub fn average_distance(&self) -> f64 {
        let n = self.num_routers;
        if n < 2 {
            return 0.0;
        }
        let total: u64 = self.dist.iter().map(|&d| u64::from(d)).sum();
        total as f64 / (n as f64 * (n as f64 - 1.0))
    }
}

/// Minimal next-hop ports per (router, destination), flattened: pair
/// `i = r * n + d` owns `ports[start[i]..start[i + 1]]`, ascending. Port
/// `p` of `r`, leading to neighbour `u`, is minimal toward `d` iff
/// `live_port(r, p)` and `dist(u, d) + 1 == dist(r, d)`. Unreachable pairs
/// (`u32::MAX` distance) get no ports.
fn minimal_ports(
    g: &Graph,
    dist: &[u32],
    live_port: impl Fn(RouterId, usize) -> bool,
) -> (Vec<u32>, Vec<u16>) {
    let n = g.num_vertices();
    let mut start = Vec::with_capacity(n * n + 1);
    // Every reachable pair of distinct routers has at least one port.
    let mut ports = Vec::with_capacity(n * n);
    start.push(0);
    for r in 0..n {
        for d in 0..n {
            let target = dist[r * n + d];
            if r != d && target != u32::MAX {
                for (p, &u) in g.neighbors(r).iter().enumerate() {
                    if live_port(r, p)
                        && dist[u * n + d] != u32::MAX
                        && dist[u * n + d] + 1 == target
                    {
                        ports.push(u16::try_from(p).expect("port fits u16"));
                    }
                }
            }
            start.push(u32::try_from(ports.len()).expect("minimal-port count fits u32"));
        }
    }
    (start, ports)
}

/// Spanning tree of the connected `g` for [`RoutingTables::new`], rooted
/// at router 0: each router's parent is its lowest-numbered BFS
/// predecessor.
fn lowest_parent_tree(g: &Graph) -> Vec<Vec<RouterId>> {
    let n = g.num_vertices();
    let (_, parent) = bfs::distances_with_parents(g, 0);
    let mut tree_adj: Vec<Vec<RouterId>> = vec![Vec::new(); n];
    for v in 1..n {
        let p = parent[v].expect("connected graph has full parent array");
        tree_adj[v].push(p);
        tree_adj[p].push(v);
    }
    tree_adj
}

/// Spanning forest over the live ports for
/// [`RoutingTables::new_degraded`]: each component's tree is rooted at its
/// lowest live router id, and each router's parent is the live neighbour
/// BFS discovered it from.
fn discovery_forest(
    g: &Graph,
    dead_router: &[bool],
    live_port: &[Vec<bool>],
) -> Vec<Vec<RouterId>> {
    let n = g.num_vertices();
    let mut tree_adj: Vec<Vec<RouterId>> = vec![Vec::new(); n];
    let mut in_tree = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for root in 0..n {
        if dead_router[root] || in_tree[root] {
            continue;
        }
        in_tree[root] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for (&u, &live) in g.neighbors(v).iter().zip(&live_port[v]) {
                if live && !in_tree[u] {
                    in_tree[u] = true;
                    tree_adj[v].push(u);
                    tree_adj[u].push(v);
                    queue.push_back(u);
                }
            }
        }
    }
    tree_adj
}

/// Escape ports per (router, destination) along the spanning forest
/// `tree_adj`: the first hop of the unique tree path from `r` to `d`, or
/// `u16::MAX` when `r == d`, `d` is dead, or `r` lies in another tree.
///
/// That path does not depend on where its tree is rooted, so each tree is
/// rooted at its lowest router and listed in DFS preorder, where every
/// subtree is one contiguous range. Seen from `r`, a destination in a
/// child's subtree lies beyond that child and any other beyond `r`'s
/// parent: row `r` takes its parent's port across the whole tree, then
/// each child's port over that child's range.
fn escape_ports(g: &Graph, tree_adj: &[Vec<RouterId>], dead_router: &[bool]) -> Vec<u16> {
    let n = g.num_vertices();
    let port = |r: RouterId, u: RouterId| {
        let p = g.neighbors(r).binary_search(&u).expect("tree edge exists in graph");
        u16::try_from(p).expect("port fits u16")
    };
    let mut escape = vec![u16::MAX; n * n];
    // The trees one after another, each in preorder; `subtree[v]` is the
    // range of `order` holding v's subtree, and a root is its own parent.
    let mut order: Vec<RouterId> = Vec::with_capacity(n);
    let mut subtree = vec![0..0; n];
    let mut parent = vec![usize::MAX; n];
    let mut stack = Vec::new();
    for root in 0..n {
        if dead_router[root] || parent[root] != usize::MAX {
            continue;
        }
        let first = order.len();
        parent[root] = root;
        stack.push(root);
        while let Some(v) = stack.pop() {
            subtree[v] = order.len()..order.len() + 1;
            order.push(v);
            for &c in &tree_adj[v] {
                if c != parent[v] {
                    parent[c] = v;
                    stack.push(c);
                }
            }
        }
        // A subtree ends where its last descendant's does; descendants
        // follow their ancestors in preorder, so one reverse pass closes
        // every range.
        for &v in order[first..].iter().rev() {
            if v != root {
                let end = subtree[v].end;
                let p = &mut subtree[parent[v]];
                p.end = p.end.max(end);
            }
        }
        let tree = &order[first..];
        for &r in tree {
            let row = &mut escape[r * n..(r + 1) * n];
            if r != root {
                let up = port(r, parent[r]);
                for &d in tree {
                    row[d] = up;
                }
                row[r] = u16::MAX;
            }
            for &c in &tree_adj[r] {
                if c != parent[r] {
                    let down = port(r, c);
                    for &d in &order[subtree[c].clone()] {
                        row[d] = down;
                    }
                }
            }
        }
    }
    escape
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_graph::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rejects_bad_topologies() {
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(
            RoutingTables::new(&empty, RoutingKind::default()).unwrap_err(),
            RoutingError::EmptyTopology
        );
        let disconnected = Graph::from_edges(4, &[(0, 1)]).unwrap();
        assert_eq!(
            RoutingTables::new(&disconnected, RoutingKind::default()).unwrap_err(),
            RoutingError::DisconnectedTopology
        );
    }

    #[test]
    fn minimal_ports_reduce_distance() {
        let g = gen::grid(4, 4);
        let t = RoutingTables::new(&g, RoutingKind::MinimalAdaptiveEscape).unwrap();
        for r in 0..16 {
            for d in 0..16 {
                if r == d {
                    assert!(t.minimal_ports(r, d).is_empty());
                    continue;
                }
                assert!(!t.minimal_ports(r, d).is_empty());
                for &p in t.minimal_ports(r, d) {
                    let u = g.neighbors(r)[usize::from(p)];
                    assert_eq!(t.distance(u, d) + 1, t.distance(r, d));
                }
            }
        }
    }

    #[test]
    fn corner_to_corner_grid_has_two_minimal_ports() {
        let g = gen::grid(3, 3);
        let t = RoutingTables::new(&g, RoutingKind::MinimalAdaptiveEscape).unwrap();
        // Router 0 (corner) to router 8 (opposite corner): both neighbours
        // lie on minimal paths.
        assert_eq!(t.minimal_ports(0, 8).len(), 2);
        assert_eq!(t.distance(0, 8), 4);
    }

    #[test]
    fn escape_paths_reach_destination() {
        let g = gen::grid(4, 5);
        let t = RoutingTables::new(&g, RoutingKind::MinimalAdaptiveEscape).unwrap();
        for r in 0..20usize {
            for d in 0..20usize {
                if r == d {
                    continue;
                }
                // Follow escape ports; must reach d within n hops (tree path).
                let mut cur = r;
                let mut hops = 0;
                while cur != d {
                    let port = t.escape_port(cur, d);
                    cur = g.neighbors(cur)[port];
                    hops += 1;
                    assert!(hops <= 20, "escape path loops: {r} -> {d}");
                }
            }
        }
    }

    #[test]
    fn escape_paths_follow_a_tree() {
        // On a cycle, tree routing must avoid one (chord) edge entirely:
        // the path from 3 to 4 on C8 with root 0 goes the long way around if
        // the tree omits edge (3,4)... whichever tree BFS picked, escape
        // paths never use more distinct edges than n-1.
        let g = gen::cycle(8);
        let t = RoutingTables::new(&g, RoutingKind::UpDownOnly).unwrap();
        let mut used_edges = std::collections::HashSet::new();
        for r in 0..8usize {
            for d in 0..8usize {
                if r == d {
                    continue;
                }
                let mut cur = r;
                while cur != d {
                    let next = g.neighbors(cur)[t.escape_port(cur, d)];
                    used_edges.insert((cur.min(next), cur.max(next)));
                    cur = next;
                }
            }
        }
        assert!(used_edges.len() <= 7, "tree uses at most n-1 edges");
    }

    #[test]
    fn average_distance_of_complete_graph_is_one() {
        let t = RoutingTables::new(&gen::complete(5), RoutingKind::default()).unwrap();
        assert!((t.average_distance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_router_topology() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let t = RoutingTables::new(&g, RoutingKind::default()).unwrap();
        assert_eq!(t.num_routers(), 1);
        assert_eq!(t.distance(0, 0), 0);
        assert_eq!(t.average_distance(), 0.0);
    }

    #[test]
    fn error_display() {
        assert!(RoutingError::DisconnectedTopology.to_string().contains("connected"));
    }

    /// 200 random connected graphs, drawn like `tests/conservation.rs`:
    /// 2..=12 routers, each pair linked with probability 0.35, plus a
    /// spanning path.
    fn random_graphs() -> Vec<Graph> {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        (0..200)
            .map(|_| {
                let n = rng.gen_range(2usize..=12);
                let coin = gen::from_coin(n, |_, _| rng.gen_range(0u8..100) < 35);
                let mut edges: Vec<_> = coin.edges().collect();
                edges.extend((1..n).map(|i| (i - 1, i)).filter(|&(u, v)| !coin.has_edge(u, v)));
                Graph::from_edges(n, &edges).expect("still simple")
            })
            .collect()
    }

    #[test]
    fn degraded_with_no_faults_matches_pristine_tables() {
        let pristine_and_degraded = |g: &Graph| {
            let dead = vec![false; g.num_vertices()];
            let kind = RoutingKind::MinimalAdaptiveEscape;
            let a = RoutingTables::new(g, kind).unwrap();
            let b = RoutingTables::new_degraded(g, kind, &dead, |_, _| false);
            assert_eq!(a.dist, b.dist);
            assert_eq!(a.minimal_start, b.minimal_start);
            assert_eq!(a.minimal, b.minimal);
            (a, b)
        };
        let (a, b) = pristine_and_degraded(&gen::grid(4, 4));
        // The two builders pick escape-tree parents by different rules
        // (lowest-numbered predecessor vs BFS discovery order), which agree
        // on a grid but not on every graph.
        assert_eq!(a.escape, b.escape);

        for g in random_graphs() {
            pristine_and_degraded(&g);
        }
    }

    /// The escape table as a walk per destination: a BFS from each live
    /// `d` over the forest, in which the first hop from `r` toward `d` is
    /// `r`'s BFS parent.
    fn escape_by_tree_walk(
        g: &Graph,
        tree_adj: &[Vec<RouterId>],
        dead_router: &[bool],
    ) -> Vec<u16> {
        let n = g.num_vertices();
        let mut escape = vec![u16::MAX; n * n];
        for d in (0..n).filter(|&d| !dead_router[d]) {
            let mut next_toward_d: Vec<Option<RouterId>> = vec![None; n];
            let mut seen = vec![false; n];
            seen[d] = true;
            let mut queue = std::collections::VecDeque::from([d]);
            while let Some(u) = queue.pop_front() {
                for &w in &tree_adj[u] {
                    if !seen[w] {
                        seen[w] = true;
                        next_toward_d[w] = Some(u);
                        queue.push_back(w);
                    }
                }
            }
            for (r, hop) in next_toward_d.into_iter().enumerate() {
                if let Some(hop) = hop {
                    let port = g.neighbors(r).binary_search(&hop).unwrap();
                    escape[r * n + d] = u16::try_from(port).unwrap();
                }
            }
        }
        escape
    }

    /// Checks every entry of `t`: its minimal ports against a filter of the
    /// live neighbours on `t`'s distances, its escape ports against
    /// [`escape_by_tree_walk`] over `tree_adj`.
    fn assert_matches_definitions(
        g: &Graph,
        t: &RoutingTables,
        live_port: impl Fn(RouterId, usize) -> bool,
        tree_adj: &[Vec<RouterId>],
        dead_router: &[bool],
    ) {
        let n = g.num_vertices();
        assert_eq!(t.minimal_start.len(), n * n + 1);
        for r in 0..n {
            for d in 0..n {
                let want: Vec<u16> = if r == d || !t.reachable(r, d) {
                    Vec::new()
                } else {
                    g.neighbors(r)
                        .iter()
                        .enumerate()
                        .filter(|&(p, &u)| {
                            live_port(r, p)
                                && t.reachable(u, d)
                                && t.distance(u, d) + 1 == t.distance(r, d)
                        })
                        .map(|(p, _)| u16::try_from(p).unwrap())
                        .collect()
                };
                assert_eq!(t.minimal_ports(r, d), want, "minimal ports {r} -> {d}");
            }
        }
        assert_eq!(t.escape, escape_by_tree_walk(g, tree_adj, dead_router));
    }

    #[test]
    fn tables_match_their_definitions() {
        let kind = RoutingKind::MinimalAdaptiveEscape;
        let mut rng = StdRng::seed_from_u64(0xFA17);
        for g in random_graphs() {
            let n = g.num_vertices();
            let t = RoutingTables::new(&g, kind).unwrap();
            assert_matches_definitions(
                &g,
                &t,
                |_, _| true,
                &lowest_parent_tree(&g),
                &vec![false; n],
            );

            // Each link dead with probability 0.2, plus one dead router.
            let dead_links: Vec<_> =
                g.edges().filter(|_| rng.gen_range(0u8..100) < 20).collect();
            let dead_link =
                |u: RouterId, v: RouterId| dead_links.contains(&(u.min(v), u.max(v)));
            let mut dead_router = vec![false; n];
            dead_router[rng.gen_range(0..n)] = true;
            let live_port: Vec<Vec<bool>> = (0..n)
                .map(|r| {
                    g.neighbors(r)
                        .iter()
                        .map(|&u| !dead_router[r] && !dead_router[u] && !dead_link(r, u))
                        .collect()
                })
                .collect();
            let t = RoutingTables::new_degraded(&g, kind, &dead_router, dead_link);
            let forest = discovery_forest(&g, &dead_router, &live_port);
            assert_matches_definitions(&g, &t, |r, p| live_port[r][p], &forest, &dead_router);
        }
    }

    #[test]
    fn degraded_routes_around_a_dead_link() {
        // Cycle of 6 with edge (0, 1) dead: distance 0 -> 1 becomes 5 and
        // the only minimal port from 0 avoids the dead edge.
        let g = gen::cycle(6);
        let dead = vec![false; 6];
        let t = RoutingTables::new_degraded(&g, RoutingKind::default(), &dead, |u, v| {
            (u.min(v), u.max(v)) == (0, 1)
        });
        assert_eq!(t.distance(0, 1), 5);
        assert!(t.reachable(0, 1));
        let ports = t.minimal_ports(0, 1);
        assert_eq!(ports.len(), 1);
        assert_eq!(g.neighbors(0)[usize::from(ports[0])], 5);
        // Escape paths still reach every destination.
        for r in 0..6usize {
            for d in 0..6usize {
                if r == d {
                    continue;
                }
                let mut cur = r;
                let mut hops = 0;
                while cur != d {
                    cur = g.neighbors(cur)[t.escape_port(cur, d)];
                    hops += 1;
                    assert!(hops <= 6, "escape path loops");
                }
            }
        }
    }

    #[test]
    fn degraded_marks_partitions_unreachable() {
        // Path 0-1-2-3 with edge (1, 2) dead: {0,1} and {2,3} split.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let dead = vec![false; 4];
        let t = RoutingTables::new_degraded(&g, RoutingKind::default(), &dead, |u, v| {
            (u.min(v), u.max(v)) == (1, 2)
        });
        assert!(t.reachable(0, 1) && t.reachable(2, 3));
        assert!(!t.reachable(0, 2) && !t.reachable(1, 3));
        assert!(t.minimal_ports(0, 2).is_empty());
        // Each side keeps a working escape tree.
        assert_eq!(g.neighbors(0)[t.escape_port(0, 1)], 1);
        assert_eq!(g.neighbors(3)[t.escape_port(3, 2)], 2);
    }

    #[test]
    fn degraded_dead_router_reaches_nothing() {
        let g = gen::grid(3, 3);
        let mut dead = vec![false; 9];
        dead[4] = true; // centre router
        let t = RoutingTables::new_degraded(&g, RoutingKind::default(), &dead, |_, _| false);
        for d in 0..9 {
            assert!(!t.reachable(4, d));
            assert!(!t.reachable(d, 4));
        }
        // The ring around the centre stays connected.
        assert!(t.reachable(0, 8));
        assert_eq!(t.distance(0, 8), 4);
    }
}
