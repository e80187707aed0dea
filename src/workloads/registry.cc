#include "workloads/registry.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/argparse.hh"
#include "common/log.hh"
#include "workloads/gap_kernels.hh"
#include "workloads/graph.hh"
#include "workloads/micro.hh"
#include "workloads/speclike.hh"

namespace mssr::workloads
{

WorkloadScale
WorkloadScale::fromEnv()
{
    // Strict warn-and-fallback parses (the MSSR_JOBS contract): the
    // seed version fed these through atoi, so "12x" ran at scale 12
    // and "abc" silently ran at scale 0.
    WorkloadScale scale;
    scale.graphScale = static_cast<unsigned>(
        envU64("MSSR_SCALE", scale.graphScale, 1, MaxGraphScale));
    scale.iterations = static_cast<unsigned>(envU64(
        "MSSR_ITERS", scale.iterations, 1,
        std::numeric_limits<unsigned>::max()));
    scale.seed = envU64("MSSR_SEED", scale.seed);
    return scale;
}

std::vector<Workload>
suiteWorkloads(const std::string &suite)
{
    if (suite == "spec2006") {
        return {{"gobmk", "spec2006"},  {"astar", "spec2006"},
                {"mcf", "spec2006"},    {"omnetpp", "spec2006"},
                {"sjeng", "spec2006"}};
    }
    if (suite == "spec2017") {
        return {{"leela", "spec2017"},     {"xz", "spec2017"},
                {"mcf17", "spec2017"},     {"omnetpp17", "spec2017"},
                {"deepsjeng", "spec2017"}, {"exchange2", "spec2017"}};
    }
    if (suite == "gap") {
        return {{"bc", "gap"}, {"bfs", "gap"}, {"cc", "gap"},
                {"pr", "gap"}, {"sssp", "gap"}, {"tc", "gap"}};
    }
    if (suite == "micro") {
        return {{"nested-mispred", "micro"}, {"linear-mispred", "micro"}};
    }
    fatal("unknown workload suite '", suite, "'");
}

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> names = {"spec2006", "spec2017",
                                                   "gap", "micro"};
    return names;
}

std::vector<std::string>
suiteWorkloadNames(const std::vector<std::string> &suites)
{
    std::vector<std::string> names;
    for (const std::string &suite : suites)
        for (const Workload &w : suiteWorkloads(suite))
            names.push_back(w.name);
    return names;
}

const std::vector<std::string> &
registeredWorkloads()
{
    static const std::vector<std::string> names =
        suiteWorkloadNames(suiteNames());
    return names;
}

bool
isWorkload(const std::string &name)
{
    const std::vector<std::string> &names = registeredWorkloads();
    return name == "bfsdo" ||
           std::find(names.begin(), names.end(), name) != names.end();
}

isa::Program
buildWorkload(const std::string &name, const WorkloadScale &scale)
{
    SpecParams spec;
    spec.iterations = scale.iterations;
    spec.seed = scale.seed;
    MicroParams micro;
    micro.iterations = scale.iterations;

    // SPEC-like synthetics.
    if (name == "astar")
        return makeAstarLike(spec);
    if (name == "gobmk")
        return makeGobmkLike(spec);
    if (name == "mcf" || name == "mcf17")
        return makeMcfLike(spec);
    if (name == "omnetpp" || name == "omnetpp17")
        return makeOmnetppLike(spec);
    if (name == "sjeng")
        return makeAlphabetaLike(spec, 2);
    if (name == "deepsjeng")
        return makeAlphabetaLike(spec, 3);
    if (name == "leela")
        return makeLeelaLike(spec);
    if (name == "xz")
        return makeXzLike(spec);
    if (name == "exchange2")
        return makeExchange2Like(spec);

    // Microbenchmarks (Listing 1).
    if (name == "nested-mispred")
        return makeNestedMispred(micro);
    if (name == "linear-mispred")
        return makeLinearMispred(micro);

    // GAP kernels over a Kronecker graph (paper: -g 12).
    const auto undirected = [&] {
        return makeKronecker(scale.graphScale, scale.edgeFactor, scale.seed,
                             true);
    };
    if (name == "bfs")
        return makeBfs(undirected());
    if (name == "bfsdo") // extension: GAP's direction-optimizing BFS
        return makeBfsDirectionOptimizing(undirected());
    if (name == "cc")
        return makeCc(undirected());
    if (name == "pr")
        return makePr(undirected(), 3);
    if (name == "sssp")
        return makeSssp(undirected(), 32);
    if (name == "tc") {
        // tc is O(sum deg^2): use one scale smaller to keep runtime
        // comparable with the other kernels.
        const unsigned s = scale.graphScale > 1 ? scale.graphScale - 1 : 1;
        return makeTc(makeKronecker(s, scale.edgeFactor, scale.seed, true));
    }
    if (name == "bc")
        return makeBc(undirected(), 2);

    fatal("unknown workload '", name, "'");
}

} // namespace mssr::workloads
