/**
 * Smoke test for the batch-simulation harness, run as a ctest (see
 * bench/CMakeLists.txt: MSSR_SCALE=6 MSSR_ITERS=200 MSSR_JOBS=2).
 * Executes a tiny design-point batch through the Harness, then
 * re-reads the emitted BENCH_batch.json with the shared mini_json
 * reader and checks the schema: bench/threads/jobs/wall_sec plus
 * per-result name/cycles/insts/ipc/host_sec/kips. The CPI stacks and
 * funnels go through the job-record readers (readCpiStack /
 * readFunnel), which check the writer's invariants.
 * Exits non-zero on any mismatch so CI notices a broken perf log
 * before any downstream tooling does.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.hh"
#include "common/cpi_stack.hh"
#include "common/mini_json.hh"

using namespace mssr;
using minijson::JsonParser;
using minijson::JsonValue;
using minijson::u64Field;

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::cerr << "bench_smoke: FAIL: " << what << "\n";
        ++failures;
    }
}

const JsonValue *
field(const JsonValue &obj, const std::string &key, JsonValue::Kind kind,
      const std::string &where)
{
    auto it = obj.object.find(key);
    if (it == obj.object.end()) {
        check(false, where + " missing key '" + key + "'");
        return nullptr;
    }
    check(it->second.kind == kind,
          where + " key '" + key + "' has wrong type");
    return &it->second;
}

} // namespace

int
main(int argc, char **argv)
{
    // Force the JSON sink on regardless of the harness environment.
    setenv("MSSR_JSON", "1", 1);

    const std::vector<std::string> names = {"nested-mispred", "bfs"};
    std::size_t expectedJobs = 0;
    {
        bench::Harness h(argc, argv, "bench_smoke");
        std::vector<BatchJob> jobs;
        for (const auto &name : names)
            for (unsigned streams : {1u, 4u})
                jobs.push_back(h.job(
                    {.name = name + "/rgid" + std::to_string(streams),
                     .workload = name, .streams = streams, .entries = 64}));
        h.runBaselines(names);
        const std::vector<RunResult> results = h.runBatch(jobs);
        check(results.size() == jobs.size(), "batch result count");
        for (const auto &r : results)
            check(r.halted && r.cycles > 0, "batch job ran to halt");
        expectedJobs = names.size() + jobs.size(); // baselines + points
    } // ~Harness writes BENCH_batch.json

    std::ifstream in("BENCH_batch.json");
    check(static_cast<bool>(in), "BENCH_batch.json exists");
    if (failures)
        return 1;
    std::ostringstream text;
    text << in.rdbuf();

    try {
        const JsonValue root = JsonParser(text.str()).parse();
        check(root.kind == JsonValue::Object, "root is an object");
        if (const auto *b = field(root, "bench", JsonValue::String, "root"))
            check(b->string == "bench_smoke", "bench name matches");
        if (const auto *t =
                field(root, "threads", JsonValue::Number, "root"))
            check(t->number >= 1, "threads >= 1");
        const auto *jobs = field(root, "jobs", JsonValue::Number, "root");
        field(root, "wall_sec", JsonValue::Number, "root");
        const auto *results =
            field(root, "results", JsonValue::Array, "root");
        if (jobs && results) {
            check(static_cast<std::size_t>(jobs->number) == expectedJobs,
                  "job count matches submissions");
            check(results->array.size() == expectedJobs,
                  "results array length matches job count");
            for (const auto &r : results->array) {
                check(r.kind == JsonValue::Object, "result is an object");
                field(r, "name", JsonValue::String, "result");
                const auto *c =
                    field(r, "cycles", JsonValue::Number, "result");
                if (c)
                    check(c->number > 0, "result cycles > 0");
                field(r, "insts", JsonValue::Number, "result");
                field(r, "ipc", JsonValue::Number, "result");
                field(r, "host_sec", JsonValue::Number, "result");
                field(r, "kips", JsonValue::Number, "result");
                const auto *width =
                    field(r, "dispatch_width", JsonValue::Number, "result");
                // The readers throw on a broken stack or funnel; the
                // catch below records it.
                if (const auto *cpi =
                        field(r, "cpi", JsonValue::Object, "result");
                    cpi && width && c)
                    readCpiStack(*cpi, u64Field(r, "cycles"),
                                 u64Field(r, "dispatch_width"));
                if (const auto *funnel =
                        field(r, "funnel", JsonValue::Object, "result"))
                    readFunnel(*funnel);
            }
        }
    } catch (const std::exception &e) {
        check(false, e.what());
    }

    if (failures == 0)
        std::cout << "bench_smoke: OK\n";
    return failures == 0 ? 0 : 1;
}
