//! Qual graphs and join (qual) trees — §3.1 of the paper.
//!
//! A *qual graph* for a database schema `D` is an undirected graph whose
//! nodes correspond one-one with the relation schemas of `D` such that, for
//! every attribute `A ∈ U(D)`, the subgraph induced by the nodes whose
//! schemas contain `A` is connected. `D` is a **tree schema** iff some qual
//! graph for it is a tree (a *qual tree*, also called a join tree).
//!
//! This module provides:
//!
//! * [`QualGraph`] — an arbitrary candidate graph plus the validity check;
//! * [`JoinTree`] — a validated qual tree with path/subtree queries and the
//!   *attribute connectivity* property checker;
//! * [`maximum_weight_join_tree`] — the classical spanning-tree construction
//!   (maximize `Σ|Rᵢ ∩ Rⱼ|`); the result is a qual tree iff `D` is a tree
//!   schema, giving a second, independent decision procedure for
//!   tree-schema-ness that the test suite cross-checks against GYO.

use crate::attr::AttrId;
use crate::fxhash::FxHashMap;
use crate::schema::DbSchema;

/// An undirected graph over the relation-schema indices `0..n` of some
/// database schema; a *candidate* qual graph until
/// [`is_valid_for`](QualGraph::is_valid_for) says otherwise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QualGraph {
    n: usize,
    edges: Vec<(usize, usize)>,
}

impl QualGraph {
    /// Builds a graph on `n` nodes from an edge list. Edges are normalized
    /// to `(min, max)` and deduplicated; self-loops are rejected.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or an edge is a self-loop.
    pub fn new(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut es: Vec<(usize, usize)> = edges
            .into_iter()
            .map(|(a, b)| {
                assert!(a < n && b < n, "edge endpoint out of range");
                assert_ne!(a, b, "self-loop in qual graph");
                (a.min(b), a.max(b))
            })
            .collect();
        es.sort_unstable();
        es.dedup();
        Self { n, edges: es }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The normalized edge list.
    #[inline]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Adjacency lists.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.n];
        for &(a, b) in &self.edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        adj
    }

    /// Whether this graph is a qual graph for `d`: for each attribute, the
    /// nodes whose schemas contain it induce a connected subgraph.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != self.node_count()`.
    pub fn is_valid_for(&self, d: &DbSchema) -> bool {
        assert_eq!(d.len(), self.n, "schema/graph size mismatch");
        let adj = self.adjacency();
        let mut holders: FxHashMap<AttrId, Vec<usize>> = FxHashMap::default();
        for (i, r) in d.iter().enumerate() {
            for a in r.iter() {
                holders.entry(a).or_default().push(i);
            }
        }
        let mut mark = vec![usize::MAX; self.n];
        let mut stack = Vec::new();
        for (round, (_, nodes)) in holders.iter().enumerate() {
            if nodes.len() <= 1 {
                continue;
            }
            // BFS inside the induced subgraph.
            for &v in nodes {
                mark[v] = round;
            }
            stack.clear();
            stack.push(nodes[0]);
            let mut seen = 1usize;
            mark[nodes[0]] = usize::MAX; // visited sentinel for this round
            while let Some(v) = stack.pop() {
                for &w in &adj[v] {
                    if mark[w] == round {
                        mark[w] = usize::MAX;
                        seen += 1;
                        stack.push(w);
                    }
                }
            }
            if seen != nodes.len() {
                return false;
            }
        }
        true
    }

    /// Whether the graph is a tree: connected with exactly `n − 1` edges
    /// (the empty graph and the single node count as trees). Checked with
    /// a union-find: `n − 1` edges none of which closes a cycle.
    pub fn is_tree(&self) -> bool {
        if self.edges.len() != self.n.saturating_sub(1) {
            return false;
        }
        let mut root: Vec<usize> = (0..self.n).collect();
        let find = |root: &mut Vec<usize>, mut v: usize| {
            while root[v] != v {
                root[v] = root[root[v]];
                v = root[v];
            }
            v
        };
        self.edges.iter().all(|&(a, b)| {
            let (ra, rb) = (find(&mut root, a), find(&mut root, b));
            root[ra] = rb;
            ra != rb
        })
    }
}

/// A validated qual tree (join tree) for a database schema.
///
/// Constructed via [`JoinTree::try_new`] (checks tree-ness and qual
/// validity) or by [`maximum_weight_join_tree`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinTree {
    graph: QualGraph,
    /// Adjacency in one buffer: the neighbors of `v` are
    /// `adj[offsets[v]..offsets[v + 1]]`, in edge-list order.
    offsets: Vec<usize>,
    adj: Vec<usize>,
}

impl JoinTree {
    /// Validates that `graph` is a tree and a qual graph for `d`; `None`
    /// otherwise. This is a hard check, run in release builds too.
    ///
    /// Once the graph is a tree, qual validity is a count. The nodes
    /// holding an attribute `A` induce a forest, which has at most
    /// `|holders(A)| − 1` edges, and exactly that many iff it is connected.
    /// An edge `(u, v)` lies inside `|Rᵤ ∩ Rᵥ|` of those forests, so,
    /// summing over `U(D)`, the tree is a qual tree iff
    /// `Σ_(u,v) |Rᵤ ∩ Rᵥ| = Σᵢ |Rᵢ| − |U(D)|` — a single disconnected
    /// attribute leaves the left side short. That costs one sort of the
    /// attribute occurrences and one merge per edge, with no hashing.
    /// [`QualGraph::is_valid_for`] keeps the per-attribute search for
    /// graphs that are not trees.
    ///
    /// # Panics
    ///
    /// Panics if the graph is a tree and `d.len() != graph.node_count()`.
    pub fn try_new(graph: QualGraph, d: &DbSchema) -> Option<Self> {
        if !graph.is_tree() {
            return None;
        }
        assert_eq!(d.len(), graph.n, "schema/graph size mismatch");
        let mut ids: Vec<AttrId> = d.iter().flat_map(|r| r.iter()).collect();
        let occurrences = ids.len();
        ids.sort_unstable();
        ids.dedup();
        let induced: usize = graph
            .edges
            .iter()
            .map(|&(u, v)| shared_count(d.rel(u).as_slice(), d.rel(v).as_slice()))
            .sum();
        if induced != occurrences - ids.len() {
            return None;
        }
        // Counting sort of the edge ends: `offsets[v + 1]` first counts
        // `v`'s degree, then serves as its fill cursor, and ends as its
        // list's end, i.e. the next list's start.
        let mut offsets = vec![0usize; graph.n + 1];
        for &(a, b) in &graph.edges {
            offsets[a + 1] += 1;
            offsets[b + 1] += 1;
        }
        let mut start = 0;
        for slot in &mut offsets[1..] {
            (start, *slot) = (start + *slot, start);
        }
        let mut adj = vec![0usize; 2 * graph.edges.len()];
        for &(a, b) in &graph.edges {
            adj[offsets[a + 1]] = b;
            offsets[a + 1] += 1;
            adj[offsets[b + 1]] = a;
            offsets[b + 1] += 1;
        }
        Some(Self {
            graph,
            offsets,
            adj,
        })
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &QualGraph {
        &self.graph
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.n
    }

    /// Edge list.
    #[inline]
    pub fn edges(&self) -> &[(usize, usize)] {
        self.graph.edges()
    }

    /// Neighbors of node `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The unique path from `r` to `s` (inclusive). Returns `[r]` if
    /// `r == s`.
    pub fn path(&self, r: usize, s: usize) -> Vec<usize> {
        let mut prev = vec![usize::MAX; self.graph.n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(r);
        prev[r] = r;
        while let Some(v) = queue.pop_front() {
            if v == s {
                break;
            }
            for &w in self.neighbors(v) {
                if prev[w] == usize::MAX {
                    prev[w] = v;
                    queue.push_back(w);
                }
            }
        }
        assert_ne!(prev[s], usize::MAX, "join tree is connected");
        let mut path = vec![s];
        let mut v = s;
        while v != r {
            v = prev[v];
            path.push(v);
        }
        path.reverse();
        path
    }

    /// Whether the node set `nodes` induces a connected subgraph of the
    /// tree — the paper's notion of `D'` being a **subtree** of `D`
    /// (Theorem 3.1). The empty set and singletons are connected.
    pub fn induces_connected(&self, nodes: &[usize]) -> bool {
        if nodes.len() <= 1 {
            return true;
        }
        let inset: Vec<bool> = {
            let mut v = vec![false; self.graph.n];
            for &x in nodes {
                v[x] = true;
            }
            v
        };
        let mut seen = vec![false; self.graph.n];
        let mut stack = vec![nodes[0]];
        seen[nodes[0]] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for &w in self.neighbors(v) {
                if inset[w] && !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count
            == nodes
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len()
    }

    /// Checks the paper's *attribute connectivity* fact (§3.1): for nodes
    /// `r`, `s` and any node `p` on the tree path between them, `R ∩ S ⊆ P`.
    /// Returns `true` for every valid qual tree; exposed so tests can verify
    /// the fact on arbitrary constructed trees.
    pub fn attribute_connectivity_holds(&self, d: &DbSchema) -> bool {
        let n = self.graph.n;
        for r in 0..n {
            for s in (r + 1)..n {
                let shared = d.rel(r).intersect(d.rel(s));
                if shared.is_empty() {
                    continue;
                }
                for &p in &self.path(r, s) {
                    if !shared.is_subset(d.rel(p)) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Renders the join tree in Graphviz DOT syntax, labeling nodes with
    /// their relation schemas — handy for inspecting decompositions.
    ///
    /// ```
    /// use gyo_schema::{Catalog, DbSchema, JoinTree, QualGraph};
    ///
    /// let mut cat = Catalog::alphabetic();
    /// let d = DbSchema::parse("ab, bc", &mut cat).unwrap();
    /// let t = JoinTree::try_new(QualGraph::new(2, [(0, 1)]), &d).unwrap();
    /// let dot = t.to_dot(&d, &cat);
    /// assert!(dot.contains("\"ab\" -- \"bc\""));
    /// ```
    pub fn to_dot(&self, d: &crate::DbSchema, cat: &crate::Catalog) -> String {
        use std::fmt::Write;
        let mut out = String::from("graph join_tree {\n");
        let label = |v: usize| d.rel(v).to_notation(cat);
        if self.graph.n == 1 {
            writeln!(out, "  \"{}\";", label(0)).expect("write to string");
        }
        for &(u, v) in self.graph.edges() {
            writeln!(out, "  \"{}\" -- \"{}\";", label(u), label(v)).expect("write to string");
        }
        out.push('}');
        out
    }

    /// A rooted view: `parent[v]` for every node, with `parent[root] ==
    /// root`. Children are visited before parents in the returned
    /// post-order (useful for semijoin programs).
    pub fn rooted_at(&self, root: usize) -> RootedTree {
        let n = self.graph.n;
        let mut parent = vec![usize::MAX; n];
        let mut order = Vec::with_capacity(n);
        let mut stack = vec![root];
        parent[root] = root;
        while let Some(v) = stack.pop() {
            order.push(v);
            for &w in self.neighbors(v) {
                if parent[w] == usize::MAX {
                    parent[w] = v;
                    stack.push(w);
                }
            }
        }
        order.reverse(); // children before parents
        RootedTree {
            root,
            parent,
            post_order: order,
        }
    }
}

/// The number of ids two ascending slices share.
fn shared_count(a: &[AttrId], b: &[AttrId]) -> usize {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

/// A join tree rooted at a chosen node; see [`JoinTree::rooted_at`].
#[derive(Clone, Debug)]
pub struct RootedTree {
    /// The root node index.
    pub root: usize,
    /// `parent[v]` is `v`'s parent; `parent[root] == root`.
    pub parent: Vec<usize>,
    /// All nodes, children strictly before their parents (root last).
    pub post_order: Vec<usize>,
}

/// The classical spanning-tree decision procedure for tree schemas:
/// compute a **maximum-weight spanning tree** of the complete graph over
/// `D`'s relation schemas with edge weight `|Rᵢ ∩ Rⱼ|` (components of the
/// intersection graph are linked by weight-0 edges, which is harmless since
/// those schemas share no attribute). The result is a qual tree iff `D` is a
/// tree schema.
///
/// Returns the tree when it validates; `None` when `D` is cyclic.
pub fn maximum_weight_join_tree(d: &DbSchema) -> Option<JoinTree> {
    let n = d.len();
    if n == 0 {
        return JoinTree::try_new(QualGraph::new(0, []), d);
    }
    // Prim's algorithm on the dense intersection-weight graph.
    let mut in_tree = vec![false; n];
    let mut best_w = vec![-1i64; n];
    let mut best_to = vec![0usize; n];
    let mut edges = Vec::with_capacity(n - 1);
    in_tree[0] = true;
    for v in 1..n {
        best_w[v] = d.rel(0).intersect(d.rel(v)).len() as i64;
        best_to[v] = 0;
    }
    for _ in 1..n {
        let mut pick = usize::MAX;
        for v in 0..n {
            if !in_tree[v] && (pick == usize::MAX || best_w[v] > best_w[pick]) {
                pick = v;
            }
        }
        in_tree[pick] = true;
        edges.push((best_to[pick], pick));
        for v in 0..n {
            if !in_tree[v] {
                let w = d.rel(pick).intersect(d.rel(v)).len() as i64;
                if w > best_w[v] {
                    best_w[v] = w;
                    best_to[v] = pick;
                }
            }
        }
    }
    JoinTree::try_new(QualGraph::new(n, edges), d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Catalog;

    fn db(s: &str) -> (DbSchema, Catalog) {
        let mut cat = Catalog::alphabetic();
        let d = DbSchema::parse(s, &mut cat).unwrap();
        (d, cat)
    }

    #[test]
    fn fig1_chain_is_a_qual_tree() {
        // Fig. 1 row 1: (ab, bc, cd) with qual graph ab - bc - cd.
        let (d, _) = db("ab, bc, cd");
        let g = QualGraph::new(3, [(0, 1), (1, 2)]);
        assert!(g.is_valid_for(&d));
        assert!(g.is_tree());
        assert!(JoinTree::try_new(g, &d).is_some());
    }

    #[test]
    fn fig1_wrong_chain_is_not_a_qual_graph() {
        // ab - cd - bc breaks connectivity of attribute b and c... check b:
        // b appears in nodes 0 and 1; they are not adjacent in 0-2, 2-1? 0-2-1
        // is a path; b's nodes {0,1} induce no edge => invalid.
        let (d, _) = db("ab, bc, cd");
        let g = QualGraph::new(3, [(0, 2), (2, 1)]);
        assert!(!g.is_valid_for(&d));
    }

    #[test]
    fn fig1_triangle_schema_has_no_qual_tree_but_star_schema_does() {
        // (ab, bc, ac): its only qual graph is the triangle (cyclic).
        let (d, _) = db("ab, bc, ac");
        let triangle = QualGraph::new(3, [(0, 1), (1, 2), (0, 2)]);
        assert!(triangle.is_valid_for(&d));
        assert!(!triangle.is_tree());
        assert!(maximum_weight_join_tree(&d).is_none());

        // Fig. 1 row 3: (abc, cde, ace, afe) is a tree schema via
        // abc - ace - afe with cde hanging off ace.
        let (d2, _) = db("abc, cde, ace, afe");
        let t = maximum_weight_join_tree(&d2).expect("tree schema");
        assert!(t.attribute_connectivity_holds(&d2));
    }

    #[test]
    fn disconnected_schema_is_still_a_tree_schema() {
        let (d, _) = db("ab, cd");
        let t = maximum_weight_join_tree(&d).expect("two islands joined by weight-0 edge");
        assert_eq!(t.node_count(), 2);
        assert!(t.attribute_connectivity_holds(&d));
    }

    #[test]
    fn aring_of_size_4_has_no_join_tree() {
        let (d, _) = db("ab, bc, cd, da");
        assert!(maximum_weight_join_tree(&d).is_none());
    }

    #[test]
    fn path_and_connected_subgraphs() {
        let (d, _) = db("ab, bc, cd, de");
        let t = maximum_weight_join_tree(&d).unwrap();
        // The MST of a chain is the chain itself.
        let p = t.path(0, 3);
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&3));
        assert_eq!(p.len(), 4);
        assert!(t.induces_connected(&[1, 2]));
        assert!(t.induces_connected(&[2]));
        assert!(t.induces_connected(&[]));
        assert!(!t.induces_connected(&[0, 2]));
    }

    #[test]
    fn rooted_post_order_children_first() {
        let (d, _) = db("ab, bc, cd");
        let t = maximum_weight_join_tree(&d).unwrap();
        let rt = t.rooted_at(0);
        assert_eq!(rt.parent[rt.root], rt.root);
        assert_eq!(*rt.post_order.last().unwrap(), rt.root);
        // every child appears before its parent
        let pos: Vec<usize> = {
            let mut v = vec![0; 3];
            for (i, &x) in rt.post_order.iter().enumerate() {
                v[x] = i;
            }
            v
        };
        for v in 0..3 {
            if v != rt.root {
                assert!(pos[v] < pos[rt.parent[v]]);
            }
        }
    }

    #[test]
    fn empty_and_singleton_graphs_are_trees() {
        let (d0, _) = db("");
        assert!(maximum_weight_join_tree(&d0).is_some());
        let (d1, _) = db("abc");
        let t = maximum_weight_join_tree(&d1).unwrap();
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn duplicate_relation_schemas_are_distinct_nodes() {
        let (d, _) = db("ab, ab, bc");
        let t = maximum_weight_join_tree(&d).expect("duplicates are fine in tree schemas");
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        QualGraph::new(2, [(0, 0)]);
    }

    #[test]
    fn dot_export_single_node_and_chain() {
        let (d1, cat) = db("abc");
        let t1 = maximum_weight_join_tree(&d1).unwrap();
        let dot1 = t1.to_dot(&d1, &cat);
        assert!(dot1.contains("\"abc\""), "{dot1}");

        let (d, cat) = db("ab, bc, cd");
        let t = maximum_weight_join_tree(&d).unwrap();
        let dot = t.to_dot(&d, &cat);
        assert!(dot.starts_with("graph join_tree {"));
        assert_eq!(dot.matches(" -- ").count(), 2);
    }

    #[test]
    fn attribute_connectivity_fails_on_bogus_tree() {
        // (ab, cd, ab∩?) — build a "tree" that is NOT a qual tree and check
        // the property checker notices via is_valid_for instead.
        let (d, _) = db("ab, cd, bd");
        // Chain ab - cd - bd: attribute b appears in nodes 0 and 2,
        // non-adjacent, with node 1 lacking b => invalid qual graph.
        let g = QualGraph::new(3, [(0, 1), (1, 2)]);
        assert!(!g.is_valid_for(&d));
        assert!(JoinTree::try_new(g, &d).is_none());
    }
}
