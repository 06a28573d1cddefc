//! Expected answers computed from the definitions over plain tuples,
//! with no call into the code under test.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Transitive closure by breadth-first search: every `(x, z)` such that
/// `z` is reachable from `x` along one or more edges.
pub fn reachability<V: Copy + Ord>(edges: &[(V, V)]) -> BTreeSet<(V, V)> {
    let mut adj: BTreeMap<V, Vec<V>> = BTreeMap::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
    }
    let mut closure = BTreeSet::new();
    for (&x, first) in &adj {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<V> = first.iter().copied().collect();
        while let Some(y) = queue.pop_front() {
            if seen.insert(y) {
                closure.insert((x, y));
                if let Some(next) = adj.get(&y) {
                    queue.extend(next.iter().copied());
                }
            }
        }
    }
    closure
}

/// Brute-force triangle list: every `(x, y, z)` with `T(x, y)`,
/// `E(y, z)` and `T(x, z)`, by looping over all of `T × E`.
pub fn triangles<V: Copy + Ord>(t: &BTreeSet<(V, V)>, edges: &[(V, V)]) -> BTreeSet<(V, V, V)> {
    let mut out = BTreeSet::new();
    for &(x, y) in t {
        for &(a, z) in edges {
            if a == y && t.contains(&(x, z)) {
                out.insert((x, y, z));
            }
        }
    }
    out
}

/// A conjunctive query over plain tuples: each body atom names a
/// relation and, per position, a variable index; the head lists
/// variable indices.
pub struct Cq<R> {
    pub head: Vec<usize>,
    pub body: Vec<(R, Vec<usize>)>,
    pub vars: usize,
}

/// Evaluate `q` by nested loops: one loop per body atom over every
/// tuple of its relation, keeping the bindings that agree.
pub fn eval_cq<R: Ord, V: Copy + Eq + Ord>(
    q: &Cq<R>,
    facts: &BTreeMap<R, Vec<Vec<V>>>,
) -> BTreeSet<Vec<V>> {
    fn go<R: Ord, V: Copy + Eq + Ord>(
        q: &Cq<R>,
        facts: &BTreeMap<R, Vec<Vec<V>>>,
        atom: usize,
        binding: &mut Vec<Option<V>>,
        out: &mut BTreeSet<Vec<V>>,
    ) {
        let Some((rel, slots)) = q.body.get(atom) else {
            out.insert(q.head.iter().map(|&v| binding[v].expect("head variable bound")).collect());
            return;
        };
        for tuple in facts.get(rel).into_iter().flatten() {
            let saved = binding.clone();
            let fits = slots.iter().zip(tuple).all(|(&slot, &value)| match binding[slot] {
                Some(bound) => bound == value,
                None => {
                    binding[slot] = Some(value);
                    true
                }
            });
            if fits {
                go(q, facts, atom + 1, binding, out);
            }
            *binding = saved;
        }
    }
    let mut out = BTreeSet::new();
    go(q, facts, 0, &mut vec![None; q.vars], &mut out);
    out
}

/// The decomposition family's closed form. `M` keeps `Q(x, y)` and
/// `R(y, z)` of every `P(x, y, z)`, and its recovery puts back
/// `P(x, y, ∃)` and `P(∃, y, z)`. So `q(x, z) :- P(x, y, u) & P(v, y, z)`
/// certainly holds of exactly the `(a, c)` that some `y` joins in `I`:
/// `P(a, y, _)` and `P(_, y, c)`.
pub fn decomposition_join<V: Copy + Ord>(p: &[[V; 3]]) -> BTreeSet<Vec<V>> {
    let mut firsts: BTreeMap<V, BTreeSet<V>> = BTreeMap::new();
    let mut lasts: BTreeMap<V, BTreeSet<V>> = BTreeMap::new();
    for &[x, y, z] in p {
        firsts.entry(y).or_default().insert(x);
        lasts.entry(y).or_default().insert(z);
    }
    let mut out = BTreeSet::new();
    for (y, xs) in &firsts {
        for &x in xs {
            for &z in &lasts[y] {
                out.insert(vec![x, z]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-cycle `0 → 1 → 2 → 0` plus a dangling edge `2 → 3`.
    const EDGES: [(u32, u32); 4] = [(0, 1), (1, 2), (2, 0), (2, 3)];

    #[test]
    fn bfs_closure_on_a_hand_sized_graph() {
        let t = reachability(&EDGES);
        let mut want = BTreeSet::new();
        for x in 0..3 {
            for z in 0..4 {
                want.insert((x, z));
            }
        }
        assert_eq!(t, want, "the cycle reaches everything, 3 reaches nothing");
        assert!(reachability(&[(7u32, 8)]).contains(&(7, 8)));
        assert!(!reachability(&[(7u32, 8)]).contains(&(8, 7)));
    }

    #[test]
    fn triangle_list_on_a_hand_sized_graph() {
        let t = reachability(&EDGES);
        let w = triangles(&t, &EDGES);
        // Every (x, y) in T with y → z in E has T(x, z) here, since the
        // cycle vertices reach every vertex.
        let mut want = BTreeSet::new();
        for &(x, y) in &t {
            for &(a, z) in &EDGES {
                if a == y {
                    want.insert((x, y, z));
                }
            }
        }
        assert_eq!(w, want);
        assert_eq!(w.len(), 12, "3 sources × 4 out-edges of reachable vertices");
        // On a bare path the only triangle is the path itself.
        let path = [(0u32, 1), (1, 2)];
        let tp = reachability(&path);
        assert_eq!(triangles(&tp, &path), BTreeSet::from([(0, 1, 2)]));
    }

    #[test]
    fn nested_loop_cq_matches_a_hand_join() {
        // q(x, y) :- P(x, z) & P(z, y) over P = {(1,2), (2,3), (3,3)}.
        let facts = BTreeMap::from([("P", vec![vec![1, 2], vec![2, 3], vec![3, 3]])]);
        let q = Cq { head: vec![0, 2], body: vec![("P", vec![0, 1]), ("P", vec![1, 2])], vars: 3 };
        let got = eval_cq(&q, &facts);
        assert_eq!(got, BTreeSet::from([vec![1, 3], vec![2, 3], vec![3, 3]]));
        // A repeated variable filters: q(x) :- P(x, x).
        let diag = Cq { head: vec![0], body: vec![("P", vec![0, 0])], vars: 1 };
        assert_eq!(eval_cq(&diag, &facts), BTreeSet::from([vec![3]]));
    }

    #[test]
    fn decomposition_closed_form_agrees_with_the_cq() {
        let p = [[1, 5, 2], [3, 5, 4], [6, 7, 8]];
        let facts = BTreeMap::from([("P", p.iter().map(|t| t.to_vec()).collect())]);
        let q = Cq {
            head: vec![0, 4],
            body: vec![("P", vec![0, 1, 2]), ("P", vec![3, 1, 4])],
            vars: 5,
        };
        assert_eq!(decomposition_join(&p), eval_cq(&q, &facts));
    }
}
