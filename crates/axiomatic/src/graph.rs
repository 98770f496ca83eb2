//! Tiny dense digraphs over at most 64 nodes.
//!
//! Executions are bounded by [`mcm_core::MAX_EVENTS`] events, so adjacency
//! fits in one `u64` per node and transitive closure is a few dozen word
//! operations — well suited to the millions of acyclicity queries the
//! exploration layer performs.

/// A directed graph on nodes `0..n` (`n <= 64`) with bitmask adjacency.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DenseGraph {
    n: usize,
    /// Bit `j` of `succ[i]`: edge `i -> j`.
    succ: Vec<u64>,
}

impl DenseGraph {
    /// An edgeless graph on `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n <= 64, "DenseGraph supports at most 64 nodes");
        DenseGraph {
            n,
            succ: vec![0; n],
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has zero nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds the edge `from -> to` (self-loops allowed; they make the graph
    /// cyclic, which is sometimes the point).
    pub fn add_edge(&mut self, from: usize, to: usize) {
        debug_assert!(from < self.n && to < self.n);
        self.succ[from] |= 1u64 << to;
    }

    /// Whether the edge `from -> to` is present.
    #[must_use]
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.succ[from] >> to & 1 == 1
    }

    /// All edges, in `(from, to)` lexicographic order.
    #[must_use]
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for from in 0..self.n {
            let mut mask = self.succ[from];
            while mask != 0 {
                let to = mask.trailing_zeros() as usize;
                out.push((from, to));
                mask &= mask - 1;
            }
        }
        out
    }

    /// The transitive closure (reachability by one or more edges).
    #[must_use]
    pub fn transitive_closure(&self) -> DenseGraph {
        let mut reach = self.succ.clone();
        for k in 0..self.n {
            let reach_k = reach[k];
            for r in reach.iter_mut() {
                if *r >> k & 1 == 1 {
                    *r |= reach_k;
                }
            }
        }
        DenseGraph {
            n: self.n,
            succ: reach,
        }
    }

    /// Whether the graph contains a directed cycle.
    #[must_use]
    pub fn has_cycle(&self) -> bool {
        let closure = self.transitive_closure();
        (0..self.n).any(|i| closure.has_edge(i, i))
    }

    /// A topological order of the nodes, or `None` if cyclic.
    #[must_use]
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let mut indegree = vec![0usize; self.n];
        for from in 0..self.n {
            let mut mask = self.succ[from];
            while mask != 0 {
                let to = mask.trailing_zeros() as usize;
                indegree[to] += 1;
                mask &= mask - 1;
            }
        }
        let mut queue: Vec<usize> = (0..self.n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(node) = queue.pop() {
            order.push(node);
            let mut mask = self.succ[node];
            while mask != 0 {
                let to = mask.trailing_zeros() as usize;
                indegree[to] -= 1;
                if indegree[to] == 0 {
                    queue.push(to);
                }
                mask &= mask - 1;
            }
        }
        (order.len() == self.n).then_some(order)
    }

    /// One directed cycle (as a node sequence), if any — used for witness
    /// output when a test is forbidden.
    #[must_use]
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        // DFS with colouring.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; self.n];
        let mut parent = vec![usize::MAX; self.n];
        for root in 0..self.n {
            if colour[root] != Colour::White {
                continue;
            }
            // Iterative DFS: stack of (node, successor mask remaining).
            let mut stack: Vec<(usize, u64)> = vec![(root, self.succ[root])];
            colour[root] = Colour::Grey;
            while let Some((node, mask)) = stack.last_mut() {
                if *mask == 0 {
                    colour[*node] = Colour::Black;
                    stack.pop();
                    continue;
                }
                let next = mask.trailing_zeros() as usize;
                *mask &= *mask - 1;
                let node = *node;
                match colour[next] {
                    Colour::White => {
                        parent[next] = node;
                        colour[next] = Colour::Grey;
                        stack.push((next, self.succ[next]));
                    }
                    Colour::Grey => {
                        // Found a cycle: walk parents from `node` to `next`.
                        let mut cycle = vec![next];
                        let mut cur = node;
                        while cur != next {
                            cycle.push(cur);
                            cur = parent[cur];
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Colour::Black => {}
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_and_cycles() {
        let mut g = DenseGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(!g.has_cycle());
        let closure = g.transitive_closure();
        assert!(closure.has_edge(0, 2));
        assert!(!closure.has_edge(2, 0));
        g.add_edge(2, 0);
        assert!(g.has_cycle());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DenseGraph::new(2);
        g.add_edge(1, 1);
        assert!(g.has_cycle());
        assert_eq!(g.find_cycle(), Some(vec![1]));
    }

    #[test]
    fn topological_order_respects_edges() {
        let mut g = DenseGraph::new(5);
        g.add_edge(3, 1);
        g.add_edge(1, 4);
        g.add_edge(0, 4);
        let order = g.topological_order().unwrap();
        let pos = |x: usize| order.iter().position(|&n| n == x).unwrap();
        assert!(pos(3) < pos(1));
        assert!(pos(1) < pos(4));
        assert!(pos(0) < pos(4));
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn cyclic_graph_has_no_topological_order() {
        let mut g = DenseGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert!(g.topological_order().is_none());
    }

    #[test]
    fn find_cycle_returns_an_actual_cycle() {
        let mut g = DenseGraph::new(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 1);
        g.add_edge(4, 5);
        let cycle = g.find_cycle().expect("cycle exists");
        assert!(cycle.len() >= 2);
        for i in 0..cycle.len() {
            let from = cycle[i];
            let to = cycle[(i + 1) % cycle.len()];
            assert!(g.has_edge(from, to), "edge {from}->{to} missing in cycle");
        }
    }

    #[test]
    fn edges_lists_every_edge_once() {
        let mut g = DenseGraph::new(3);
        g.add_edge(0, 2);
        g.add_edge(2, 1);
        g.add_edge(0, 1);
        assert_eq!(g.edges(), vec![(0, 1), (0, 2), (2, 1)]);
    }

    #[test]
    fn empty_graph_behaves() {
        let g = DenseGraph::new(0);
        assert!(g.is_empty());
        assert!(!g.has_cycle());
        assert_eq!(g.topological_order(), Some(vec![]));
        assert_eq!(g.find_cycle(), None);
    }
}
