/**
 * @file
 * Workload registry: maps benchmark names to program factories so the
 * benchmark harness and examples can enumerate the paper's workload
 * sets (SPECint2006-like, SPECint2017-like, GAP) uniformly.
 */

#ifndef MSSR_WORKLOADS_REGISTRY_HH
#define MSSR_WORKLOADS_REGISTRY_HH

#include <string>
#include <vector>

#include "isa/program.hh"

namespace mssr::workloads
{

/** Scaling knobs for a whole experiment sweep. */
struct WorkloadScale
{
    unsigned graphScale = 10;     //!< log2 vertices (paper: 12)
    unsigned edgeFactor = 16;     //!< GAP default degree
    unsigned iterations = 4000;   //!< synthetic kernel iterations
    std::uint64_t seed = 42;

    /**
     * Reads MSSR_SCALE / MSSR_ITERS / MSSR_SEED environment overrides
     * so the harness can be scaled up toward the paper's -g 12 runs.
     * MSSR_SCALE takes 1..MaxGraphScale (workloads/graph.hh).
     */
    static WorkloadScale fromEnv();
};

/** One named benchmark. */
struct Workload
{
    std::string name;   //!< e.g. "astar", "bfs"
    std::string suite;  //!< "spec2006", "spec2017", "gap", "micro"
};

/** All benchmarks of a suite, in presentation order. */
std::vector<Workload> suiteWorkloads(const std::string &suite);

/** The suites, in presentation order. */
const std::vector<std::string> &suiteNames();

/** Workload names of @p suites, in presentation order. */
std::vector<std::string>
suiteWorkloadNames(const std::vector<std::string> &suites);

/** Every registered workload name: suiteWorkloadNames(suiteNames()). */
const std::vector<std::string> &registeredWorkloads();

/** True for every name buildWorkload() builds: the registered workloads
 *  plus the unlisted "bfsdo" extension. */
bool isWorkload(const std::string &name);

/** Builds the program for @p name at @p scale. Unknown names fatal. */
isa::Program buildWorkload(const std::string &name,
                           const WorkloadScale &scale);

} // namespace mssr::workloads

#endif // MSSR_WORKLOADS_REGISTRY_HH
