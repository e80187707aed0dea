#include "workloads/graph.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"
#include "common/rng.hh"

namespace mssr::workloads
{

namespace
{

Graph
fromEdgeList(std::uint32_t n,
             std::vector<std::pair<std::uint32_t, std::uint32_t>> edges,
             std::uint64_t seed, bool symmetric)
{
    if (symmetric) {
        const std::size_t m = edges.size();
        edges.reserve(2 * m);
        for (std::size_t i = 0; i < m; ++i)
            edges.emplace_back(edges[i].second, edges[i].first);
    }

    std::vector<std::vector<std::uint32_t>> adj(n);
    for (const auto &[u, v] : edges) {
        if (u == v)
            continue; // drop self loops
        adj[u].push_back(v);
    }
    for (auto &list : adj) {
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
    }

    // Relabel vertices by descending degree (as the GAP suite does for
    // tc). This also guarantees vertex 0 is the best-connected vertex,
    // making it a meaningful bfs/sssp/bc source -- Kronecker graphs
    // leave many vertices isolated.
    std::vector<std::uint32_t> byDegree(n);
    for (std::uint32_t i = 0; i < n; ++i)
        byDegree[i] = i;
    std::stable_sort(byDegree.begin(), byDegree.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return adj[a].size() > adj[b].size();
                     });
    std::vector<std::uint32_t> newId(n);
    for (std::uint32_t rank = 0; rank < n; ++rank)
        newId[byDegree[rank]] = rank;

    Graph g;
    g.numVertices = n;
    g.adj.resize(n);
    g.wgt.resize(n);
    Rng rng(seed ^ 0xabcdef);
    for (std::uint32_t rank = 0; rank < n; ++rank) {
        const std::uint32_t old = byDegree[rank];
        auto &list = g.adj[rank];
        list.reserve(adj[old].size());
        for (std::uint32_t v : adj[old])
            list.push_back(newId[v]);
        std::sort(list.begin(), list.end());
        g.wgt[rank].resize(list.size());
        for (auto &w : g.wgt[rank])
            w = static_cast<std::uint32_t>(1 + rng.below(255));
    }
    return g;
}

} // namespace

Graph
makeKronecker(unsigned scale, unsigned edge_factor, std::uint64_t seed,
              bool symmetric)
{
    mssr_assert(scale >= 1 && scale <= MaxGraphScale,
                "unreasonable Kronecker scale");
    const std::uint32_t n = std::uint32_t(1) << scale;
    const std::size_t m = std::size_t(edge_factor) << scale;
    // GAP defaults: A=0.57, B=0.19, C=0.19 (D = 0.05 implicit).
    constexpr double A = 0.57, B = 0.19, C = 0.19;

    Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(m);
    for (std::size_t e = 0; e < m; ++e) {
        std::uint32_t u = 0, v = 0;
        for (unsigned level = 0; level < scale; ++level) {
            const double p = rng.real();
            u <<= 1;
            v <<= 1;
            if (p < A) {
                // quadrant (0,0)
            } else if (p < A + B) {
                v |= 1;
            } else if (p < A + B + C) {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        edges.emplace_back(u, v);
    }
    // Permute vertex labels to break the generator's degree locality
    // (as the GAP generator does).
    std::vector<std::uint32_t> perm(n);
    for (std::uint32_t i = 0; i < n; ++i)
        perm[i] = i;
    for (std::uint32_t i = n - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.below(i + 1)]);
    for (auto &[u, v] : edges) {
        u = perm[u];
        v = perm[v];
    }
    return fromEdgeList(n, std::move(edges), seed, symmetric);
}

Graph
makeUniform(unsigned scale, unsigned edge_factor, std::uint64_t seed,
            bool symmetric)
{
    const std::uint32_t n = std::uint32_t(1) << scale;
    const std::size_t m = std::size_t(edge_factor) << scale;
    Rng rng(seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(m);
    for (std::size_t e = 0; e < m; ++e) {
        edges.emplace_back(static_cast<std::uint32_t>(rng.below(n)),
                           static_cast<std::uint32_t>(rng.below(n)));
    }
    return fromEdgeList(n, std::move(edges), seed, symmetric);
}

GraphLayout
embedGraph(isa::Program &prog, const Graph &graph, const std::string &prefix,
           bool with_weights)
{
    GraphLayout out;
    out.numVertices = graph.numVertices;
    out.numEdges = graph.numEdges();

    std::vector<std::int64_t> rowPtr(graph.numVertices + 1, 0);
    std::vector<std::int64_t> col;
    std::vector<std::int64_t> wgt;
    col.reserve(out.numEdges);
    for (std::uint32_t u = 0; u < graph.numVertices; ++u) {
        rowPtr[u] = static_cast<std::int64_t>(col.size());
        for (std::size_t i = 0; i < graph.adj[u].size(); ++i) {
            col.push_back(graph.adj[u][i]);
            if (with_weights)
                wgt.push_back(graph.wgt[u][i]);
        }
    }
    rowPtr[graph.numVertices] = static_cast<std::int64_t>(col.size());

    out.rowPtr = prog.allocData(prefix + "_rowptr", rowPtr.size() * 8);
    prog.initData64(out.rowPtr, rowPtr);
    out.col = prog.allocData(prefix + "_col", std::max<std::size_t>(
                                                  col.size() * 8, 8));
    prog.initData64(out.col, col);
    if (with_weights) {
        out.wgt = prog.allocData(prefix + "_wgt", std::max<std::size_t>(
                                                      wgt.size() * 8, 8));
        prog.initData64(out.wgt, wgt);
    }
    return out;
}

} // namespace mssr::workloads
