//! Graph-coloring tests for the homomorphism engine.
//!
//! A graph `G` (vertices as nulls, edges as symmetric `E`-facts) is
//! `n`-colorable iff `G → Kₙ` (the complete graph on `n` constant
//! vertices, no loops). These are the classic hard instances for
//! homomorphism engines: correctness here exercises deep backtracking
//! with genuine conflicts, not just index lookups.

use rde_hom::{count_homs, exists_hom, HomConfig, HomStats};
use rde_model::{Fact, Instance, Value, Vocabulary};

fn hom(a: &Instance, b: &Instance) -> bool {
    exists_hom(a, b, &HomConfig::default(), &mut HomStats::default()).holds()
}

struct G {
    vocab: Vocabulary,
    rel: rde_model::RelId,
}

impl G {
    fn new() -> Self {
        let mut vocab = Vocabulary::new();
        let rel = vocab.relation("E", 2).unwrap();
        G { vocab, rel }
    }

    /// Vertex as a null (graph side).
    fn v(&mut self, i: usize) -> Value {
        self.vocab.null_value(&format!("v{i}"))
    }

    /// Vertex as a constant (template side).
    fn c(&mut self, i: usize) -> Value {
        self.vocab.const_value(&format!("k{i}"))
    }

    /// Undirected edge: both orientations.
    fn edge(&self, g: &mut Instance, a: Value, b: Value) {
        g.insert(Fact::new(self.rel, vec![a, b]));
        g.insert(Fact::new(self.rel, vec![b, a]));
    }

    /// Kₙ on constants (no self-loops).
    fn complete(&mut self, n: usize) -> Instance {
        let mut out = Instance::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let (a, b) = (self.c(i), self.c(j));
                    out.insert(Fact::new(self.rel, vec![a, b]));
                }
            }
        }
        out
    }

    /// Cycle on `n` null vertices.
    fn cycle(&mut self, n: usize) -> Instance {
        let mut out = Instance::new();
        for i in 0..n {
            let (a, b) = (self.v(i), self.v((i + 1) % n));
            self.edge(&mut out, a, b);
        }
        out
    }

    /// Complete graph on `n` null vertices.
    fn clique(&mut self, n: usize) -> Instance {
        let mut out = Instance::new();
        for i in 0..n {
            for j in i + 1..n {
                let (a, b) = (self.v(i), self.v(j));
                self.edge(&mut out, a, b);
            }
        }
        out
    }
}

#[test]
fn bipartite_graphs_are_2_colorable() {
    let mut g = G::new();
    let c6 = g.cycle(6);
    let k2 = g.complete(2);
    assert!(hom(&c6, &k2), "even cycles are bipartite");
    // Exactly two proper 2-colorings of a connected bipartite graph.
    assert_eq!(count_homs(&c6, &k2), 2);
}

#[test]
fn odd_cycles_are_not_2_colorable_but_are_3_colorable() {
    let mut g = G::new();
    let c5 = g.cycle(5);
    let k2 = g.complete(2);
    let k3 = g.complete(3);
    assert!(!hom(&c5, &k2), "odd cycle needs 3 colors");
    assert!(hom(&c5, &k3));
    // C5 has 30 proper 3-colorings: (3-1)^5 + (3-1) = 30.
    assert_eq!(count_homs(&c5, &k3), 30);
}

#[test]
fn k4_needs_exactly_4_colors() {
    let mut g = G::new();
    let k4_nulls = g.clique(4);
    let k3 = g.complete(3);
    let k4 = g.complete(4);
    assert!(!hom(&k4_nulls, &k3), "χ(K4) = 4");
    assert!(hom(&k4_nulls, &k4));
    // Proper colorings of K4 with 4 colors: 4! = 24.
    assert_eq!(count_homs(&k4_nulls, &k4), 24);
}

#[test]
fn petersen_graph_is_3_colorable_but_not_2() {
    // The Petersen graph: outer C5 (0–4), inner pentagram (5–9),
    // spokes i—(i+5).
    let mut g = G::new();
    let mut p = Instance::new();
    for i in 0..5 {
        let (a, b) = (g.v(i), g.v((i + 1) % 5));
        g.edge(&mut p, a, b);
        let (a, b) = (g.v(5 + i), g.v(5 + (i + 2) % 5));
        g.edge(&mut p, a, b);
        let (a, b) = (g.v(i), g.v(i + 5));
        g.edge(&mut p, a, b);
    }
    assert_eq!(p.len(), 30, "15 undirected edges");
    let k2 = g.complete(2);
    let k3 = g.complete(3);
    assert!(!hom(&p, &k2), "Petersen contains odd cycles");
    assert!(hom(&p, &k3), "χ(Petersen) = 3");
    // Known: the Petersen graph has 120 proper 3-colorings.
    assert_eq!(count_homs(&p, &k3), 120);
}

#[test]
fn grid_graphs_are_bipartite() {
    // 4×4 grid on nulls.
    let mut g = G::new();
    let mut grid = Instance::new();
    for r in 0..4usize {
        for c in 0..4usize {
            if r + 1 < 4 {
                let (a, b) = (g.v(r * 4 + c), g.v((r + 1) * 4 + c));
                g.edge(&mut grid, a, b);
            }
            if c + 1 < 4 {
                let (a, b) = (g.v(r * 4 + c), g.v(r * 4 + c + 1));
                g.edge(&mut grid, a, b);
            }
        }
    }
    let k2 = g.complete(2);
    assert!(hom(&grid, &k2));
    assert_eq!(count_homs(&grid, &k2), 2, "connected bipartite: two 2-colorings");
}

#[test]
fn wheel_graphs() {
    // Wheel W5: C5 plus a hub adjacent to all — χ(W5) = 4 (odd cycle + hub).
    let mut g = G::new();
    let mut w = g.cycle(5);
    for i in 0..5 {
        let (hub, rim) = (g.v(100), g.v(i));
        g.edge(&mut w, hub, rim);
    }
    let k3 = g.complete(3);
    let k4 = g.complete(4);
    assert!(!hom(&w, &k3));
    assert!(hom(&w, &k4));
}
