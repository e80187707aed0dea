/**
 * Reproduces Figure 3: replacement frequency in the Register
 * Integration reuse table for the two microbenchmark variations at
 * 1-way, 2-way and 4-way associativity (64 sets). The paper's heatmap
 * shows dense replacements at low associativity, fading at 4-way; we
 * render per-set replacement counts as an ASCII shade map plus summary
 * statistics.
 */

#include <vector>

#include "bench_common.hh"
#include "ri/integration_table.hh"

using namespace mssr;

namespace
{

char
shade(double norm)
{
    static const char levels[] = {' ', '.', ':', '-', '=', '+', '*', '#',
                                  '%', '@'};
    const int idx = std::min(9, static_cast<int>(norm * 10.0));
    return levels[idx];
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> names = {"nested-mispred",
                                            "linear-mispred"};
    bench::Harness h(argc, argv, "fig3_ri_replacement");
    h.banner("Figure 3: replacement frequency in the RI reuse table");

    const unsigned waysList[] = {1, 2, 4};

    // Each job's inspect closure writes its own Probe slot, so the
    // batch can run the six points concurrently without locking.
    struct Probe
    {
        std::vector<std::uint64_t> counts;
        unsigned sets = 0;
    };
    std::vector<Probe> probes(names.size() * std::size(waysList));
    std::vector<BatchJob> jobs;
    std::size_t slot = 0;
    for (const auto &name : names) {
        for (unsigned ways : waysList) {
            BatchJob j =
                h.job({.name = name + "/ri" + std::to_string(ways) + "w",
                       .workload = name, .scheme = "regint", .sets = 64,
                       .ways = ways});
            Probe *probe = &probes[slot++];
            j.inspect = [probe](const O3Cpu &cpu) {
                const IntegrationTable *table = cpu.integrationTable();
                probe->counts = table->replacementCounts();
                probe->sets = table->sets();
            };
            jobs.push_back(std::move(j));
        }
    }
    h.runBatch(jobs);

    slot = 0;
    for (const auto &name : names) {
        for (unsigned ways : waysList) {
            const Probe &probe = probes[slot++];
            std::uint64_t peak = 1;
            std::uint64_t total = 0;
            for (auto c : probe.counts) {
                total += c;
                peak = std::max<std::uint64_t>(peak, c);
            }
            std::cout << "\n" << name << ", " << ways
                      << "-way x 64 sets: " << total
                      << " replacements (peak " << peak
                      << " in one entry)\n";
            // One row of 64 characters per way: set index left to
            // right, darker = more replacements.
            for (unsigned w = 0; w < ways; ++w) {
                std::cout << "  way " << w << " |";
                for (unsigned s = 0; s < probe.sets; ++s) {
                    const double norm =
                        static_cast<double>(probe.counts[s * ways + w]) /
                        static_cast<double>(peak);
                    std::cout << shade(norm);
                }
                std::cout << "|\n";
            }
        }
    }
    std::cout << "\nExpected shape (paper): low associativity shows dense"
                 " (dark) replacement\nactivity across the sets touched"
                 " by the loop; 4-way is mostly light.\n";
    return 0;
}
