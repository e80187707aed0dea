#include <gtest/gtest.h>

#include "sim/memory.hh"
#include "workloads/graph.hh"

using namespace mssr;
using namespace mssr::workloads;

TEST(Graph, KroneckerShape)
{
    const Graph g = makeKronecker(8, 8, 42, false);
    EXPECT_EQ(g.numVertices, 256u);
    EXPECT_GT(g.numEdges(), 1000u);
    // Adjacency sorted and deduplicated, no self loops.
    for (std::uint32_t u = 0; u < g.numVertices; ++u) {
        for (std::size_t i = 0; i < g.adj[u].size(); ++i) {
            EXPECT_NE(g.adj[u][i], u);
            if (i > 0) {
                EXPECT_LT(g.adj[u][i - 1], g.adj[u][i]);
            }
        }
    }
}

TEST(Graph, SymmetricHasReverseEdges)
{
    const Graph g = makeKronecker(7, 8, 7, true);
    for (std::uint32_t u = 0; u < g.numVertices; ++u) {
        for (std::uint32_t v : g.adj[u]) {
            const auto &back = g.adj[v];
            EXPECT_TRUE(std::binary_search(back.begin(), back.end(), u))
                << u << " -> " << v << " has no reverse edge";
        }
    }
}

TEST(Graph, KroneckerIsSkewed)
{
    // R-MAT graphs have heavy-tailed degrees: the max degree should
    // be far above the average.
    const Graph g = makeKronecker(10, 8, 42, false);
    std::size_t maxDeg = 0;
    for (const auto &adj : g.adj)
        maxDeg = std::max(maxDeg, adj.size());
    const double avg =
        static_cast<double>(g.numEdges()) / g.numVertices;
    EXPECT_GT(static_cast<double>(maxDeg), 6 * avg);
}

TEST(Graph, UniformIsNotSkewed)
{
    const Graph g = makeUniform(10, 8, 42, false);
    std::size_t maxDeg = 0;
    for (const auto &adj : g.adj)
        maxDeg = std::max(maxDeg, adj.size());
    const double avg =
        static_cast<double>(g.numEdges()) / g.numVertices;
    EXPECT_LT(static_cast<double>(maxDeg), 6 * avg);
}

TEST(Graph, Deterministic)
{
    const Graph a = makeKronecker(7, 8, 5, true);
    const Graph b = makeKronecker(7, 8, 5, true);
    ASSERT_EQ(a.numVertices, b.numVertices);
    for (std::uint32_t u = 0; u < a.numVertices; ++u) {
        EXPECT_EQ(a.adj[u], b.adj[u]);
        EXPECT_EQ(a.wgt[u], b.wgt[u]);
    }
}

TEST(Graph, WeightsInGapRange)
{
    const Graph g = makeKronecker(7, 8, 5, true);
    for (const auto &ws : g.wgt)
        for (auto w : ws) {
            EXPECT_GE(w, 1u);
            EXPECT_LE(w, 255u);
        }
}

TEST(Graph, EmbedCsrRoundTrip)
{
    const Graph g = makeKronecker(6, 4, 9, true);
    isa::Program prog;
    const GraphLayout layout = embedGraph(prog, g, "g", true);
    EXPECT_EQ(layout.numVertices, g.numVertices);
    EXPECT_EQ(layout.numEdges, g.numEdges());

    Memory mem;
    prog.loadInto(mem);
    // Walk the CSR from simulated memory and compare to the graph.
    for (std::uint32_t u = 0; u < g.numVertices; ++u) {
        const auto begin = mem.read64(layout.rowPtr + 8 * u);
        const auto end = mem.read64(layout.rowPtr + 8 * (u + 1));
        ASSERT_EQ(end - begin, g.adj[u].size());
        for (std::size_t i = 0; i < g.adj[u].size(); ++i) {
            EXPECT_EQ(mem.read64(layout.col + 8 * (begin + i)),
                      g.adj[u][i]);
            EXPECT_EQ(mem.read64(layout.wgt + 8 * (begin + i)),
                      g.wgt[u][i]);
        }
    }
    EXPECT_EQ(prog.label("g_rowptr"), layout.rowPtr);
}
