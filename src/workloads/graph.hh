/**
 * @file
 * Graph generation and CSR embedding for the GAP benchmark suite
 * reimplementation (paper section 4: GAP with -g 12). Implements the
 * GAP-default Kronecker generator (A=0.57, B=0.19, C=0.19) and a
 * uniform-random generator, plus helpers that place CSR arrays into a
 * Program's data image for the assembly kernels to traverse.
 */

#ifndef MSSR_WORKLOADS_GRAPH_HH
#define MSSR_WORKLOADS_GRAPH_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"

namespace mssr::workloads
{

/** In-memory graph with sorted, deduplicated adjacency lists. */
struct Graph
{
    std::uint32_t numVertices = 0;
    std::vector<std::vector<std::uint32_t>> adj;
    std::vector<std::vector<std::uint32_t>> wgt; //!< parallel to adj

    std::size_t
    numEdges() const
    {
        std::size_t m = 0;
        for (const auto &list : adj)
            m += list.size();
        return m;
    }
};

/**
 * Largest graph scale (log2 vertices) any workload is built at: the
 * limit makeKronecker() asserts, which MSSR_SCALE and every front end's
 * scale knob check before building.
 */
constexpr unsigned MaxGraphScale = 24;

/**
 * GAP-style Kronecker (R-MAT) graph: 2^scale vertices, about
 * scale * edge_factor * 2^scale edge endpoints before dedup;
 * scale in [1, MaxGraphScale].
 * @param symmetric add reverse edges (undirected kernels).
 */
Graph makeKronecker(unsigned scale, unsigned edge_factor,
                    std::uint64_t seed, bool symmetric);

/** Uniform-random graph with the same sizing. */
Graph makeUniform(unsigned scale, unsigned edge_factor, std::uint64_t seed,
                  bool symmetric);

/** Addresses of the CSR arrays placed in a program's data image. */
struct GraphLayout
{
    std::uint32_t numVertices = 0;
    std::uint64_t numEdges = 0;
    Addr rowPtr = 0;   //!< int64[numVertices + 1]
    Addr col = 0;      //!< int64[numEdges]
    Addr wgt = 0;      //!< int64[numEdges], 0 when not embedded
};

/**
 * Embeds @p graph as CSR arrays in @p prog's data image under labels
 * "<prefix>_rowptr", "<prefix>_col" (and "<prefix>_wgt").
 */
GraphLayout embedGraph(isa::Program &prog, const Graph &graph,
                       const std::string &prefix, bool with_weights);

} // namespace mssr::workloads

#endif // MSSR_WORKLOADS_GRAPH_HH
