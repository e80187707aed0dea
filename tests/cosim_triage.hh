/**
 * @file
 * Divergence triage for the co-simulation property tests: attaches a
 * bounded recorder (a PipeView feeding only the traces) to the O3 run
 * and, if the enclosing gtest assertion block failed, dumps the last N
 * trace events to stderr on scope exit. A cosim mismatch report ("arch reg s3 differs") is otherwise
 * the least debuggable failure in the suite -- the triage dump shows
 * what the pipeline was doing (reuse verdicts, squashes, verify
 * outcomes) right before the architectural state went wrong.
 *
 * Recording must never change simulation results (asserted by
 * test_trace.cc), so leaving it attached in every cosim run is free
 * correctness-wise and keeps the instrumentation honest.
 */

#ifndef MSSR_TESTS_COSIM_TRIAGE_HH
#define MSSR_TESTS_COSIM_TRIAGE_HH

#include <gtest/gtest.h>

#include <iostream>
#include <string>

#include "common/config.hh"
#include "common/pipeview.hh"

namespace mssr
{

class CosimTriage
{
  public:
    /** Attaches a bounded recorder to @p cfg for the upcoming run. */
    CosimTriage(const std::string &what, SimConfig &cfg)
        : what_(what),
          view_({.trace = true}),
          failedBefore_(::testing::Test::HasFatalFailure() ||
                        ::testing::Test::HasNonfatalFailure())
    {
        cfg.pipeview = &view_;
    }

    ~CosimTriage()
    {
        // Dump only for a failure that appeared during this run, not
        // one carried over from an earlier iteration of the test.
        const bool failedNow = ::testing::Test::HasFatalFailure() ||
                               ::testing::Test::HasNonfatalFailure();
        if (!failedNow || failedBefore_)
            return;
        std::cerr << "=== cosim divergence triage: " << what_
                  << " (last " << kDumpEvents << " of "
                  << view_.recorded() << " events) ===\n";
        view_.writeText(std::cerr, kDumpEvents);
        std::cerr << "=== end triage: " << what_ << " ===\n";
    }

    CosimTriage(const CosimTriage &) = delete;
    CosimTriage &operator=(const CosimTriage &) = delete;

  private:
    static constexpr std::size_t kDumpEvents = 64;

    std::string what_;
    PipeView view_;
    bool failedBefore_;
};

} // namespace mssr

#endif // MSSR_TESTS_COSIM_TRIAGE_HH
