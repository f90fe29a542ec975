#include "tw/grid.h"

#include "hom/matcher.h"

namespace twchase {
namespace {

// Encodes an undirected graph as an atomset over pseudo-predicate 0
// ("edge", both orientations) with vertices as raw variables. Never printed,
// so no vocabulary registration is needed.
AtomSet EncodeGraph(const Graph& g, uint32_t vertex_offset) {
  AtomSet out;
  const PredicateId kEdge = 0;
  for (int u = 0; u < g.num_vertices(); ++u) {
    for (int v : g.Neighbors(u)) {
      out.Insert(Atom(kEdge, {Term::Variable(vertex_offset + u),
                              Term::Variable(vertex_offset + v)}));
    }
  }
  // Isolated vertices are irrelevant for grid containment.
  return out;
}

}  // namespace

bool GraphContainsGrid(const Graph& g, int n) {
  if (n <= 0) return true;
  if (n == 1) return g.num_vertices() >= 1;
  if (g.num_vertices() < n * n) return false;
  Graph grid = Graph::Grid(n, n);
  // Pattern vertex ids start right after the target's so the two variable
  // spaces never collide. The offset stays small because an AtomSet's term
  // dictionary sizes its variable table by the largest variable index.
  AtomSet target = EncodeGraph(g, 0);
  AtomSet pattern =
      EncodeGraph(grid, static_cast<uint32_t>(g.num_vertices()));
  HomOptions options;
  options.limit = 1;
  options.injective = true;
  options.vars_to_vars = true;
  return FindHomomorphism(pattern, target, options).has_value();
}

bool ContainsGrid(const AtomSet& atoms, int n) {
  Graph g = Graph::GaifmanOf(atoms, nullptr);
  return GraphContainsGrid(g, n);
}

int GridLowerBound(const AtomSet& atoms, int max_n) {
  Graph g = Graph::GaifmanOf(atoms, nullptr);
  int best = 0;
  for (int n = 1; n <= max_n; ++n) {
    if (!GraphContainsGrid(g, n)) break;
    best = n;
  }
  return best;
}

}  // namespace twchase
