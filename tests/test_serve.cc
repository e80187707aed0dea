/**
 * Simulation-as-a-service engine (driver/serve_core.hh) and its
 * substrates: the mssr-serve-v1 frame codec (common/frame.hh), the
 * mssr-serve-journal-v1 crash journal (common/serve_journal.hh), the
 * strict job-spec parser, and the ServeCore request dispatcher --
 * including the end-to-end determinism contracts (double-submit
 * byte-identity, journal resume serving exactly the not-yet-finished
 * jobs, a drained sampled job never journaled as done) and the
 * sampling scan that a batch's design points share.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/frame.hh"
#include "common/metrics.hh"
#include "common/mini_json.hh"
#include "common/serve_journal.hh"
#include "driver/serve_core.hh"
#include "sim/sample_schedule.hh"
#include "workloads/registry.hh"

using namespace mssr;
using minijson::JsonValue;

namespace
{

JsonValue
parseJson(const std::string &text)
{
    return minijson::JsonParser(text).parse();
}

std::string
strField(const JsonValue &v, const std::string &key)
{
    const auto it = v.object.find(key);
    return it != v.object.end() ? it->second.string : std::string();
}

double
numField(const JsonValue &v, const std::string &key)
{
    const auto it = v.object.find(key);
    return it != v.object.end() ? it->second.number : -1.0;
}

bool
okReply(const JsonValue &v)
{
    const auto it = v.object.find("ok");
    return it != v.object.end() && it->second.kind == JsonValue::Bool &&
           it->second.number != 0.0;
}

/** A scratch directory that cleans up after the test. */
struct TempDir
{
    std::filesystem::path path;

    TempDir()
    {
        path = std::filesystem::temp_directory_path() /
               ("mssr_serve_test_" + std::to_string(getpid()) + "_" +
                std::to_string(counter()++));
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }

    std::string
    file(const std::string &name) const
    {
        return (path / name).string();
    }

    static int &
    counter()
    {
        static int n = 0;
        return n;
    }
};

// ---------------------------------------------------------------- frame

TEST(Frame, RoundTripsOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string msgs[] = {"{}", std::string(100000, 'x'), ""};
    for (const std::string &msg : msgs)
        writeFrame(fds[0], msg);
    std::string got;
    for (const std::string &msg : msgs) {
        ASSERT_TRUE(readFrame(fds[1], got));
        EXPECT_EQ(got, msg);
    }
    close(fds[0]);
    // Clean EOF is false, not an exception.
    EXPECT_FALSE(readFrame(fds[1], got));
    close(fds[1]);
}

TEST(Frame, TornStreamThrows)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // A length header promising 100 bytes, then EOF mid-payload.
    const unsigned char hdr[4] = {100, 0, 0, 0};
    ASSERT_EQ(write(fds[0], hdr, 4), 4);
    ASSERT_EQ(write(fds[0], "abc", 3), 3);
    close(fds[0]);
    std::string got;
    EXPECT_THROW(readFrame(fds[1], got), FrameError);
    close(fds[1]);
}

TEST(Frame, OversizeFrameThrows)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const unsigned char hdr[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(write(fds[0], hdr, 4), 4);
    std::string got;
    EXPECT_THROW(readFrame(fds[1], got), FrameError);
    close(fds[0]);
    close(fds[1]);
}

TEST(Frame, JsonEscapeCoversControlAndQuotes)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("x\n\t"), "x\\n\\t");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

namespace
{

/** minijson's error message for @p text, or "parsed". */
std::string
jsonError(const std::string &text)
{
    try {
        minijson::JsonParser(text).parse();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "parsed";
}

} // namespace

TEST(MiniJson, RejectsDeepNestingAndOutOfRangeNumbers)
{
    // Request frames are outside input: nesting past the bound and a
    // number past double range are JSON errors at their offset, not a
    // stack overflow or a stod exception.
    const auto error = jsonError;
    constexpr unsigned Max = minijson::JsonParser::kMaxDepth;
    EXPECT_EQ(error(std::string(Max, '[') + std::string(Max, ']')),
              "parsed");
    EXPECT_EQ(error(std::string(Max + 1, '[') + std::string(Max + 1, ']')),
              "JSON error at offset 128: nesting deeper than 128 levels");
    EXPECT_EQ(error(std::string(100000, '[')),
              "JSON error at offset 128: nesting deeper than 128 levels");
    EXPECT_EQ(error("1e999"),
              "JSON error at offset 0: number out of double range");
    EXPECT_EQ(error("{\"seed\": -1e999}"),
              "JSON error at offset 9: number out of double range");
    EXPECT_EQ(error("[1, -]"), "JSON error at offset 4: expected number");
}

TEST(MiniJson, AcceptsExactlyTheRfcNumberGrammar)
{
    // Each of these is malformed after a valid number prefix, which
    // must not be taken for the whole value.
    const auto error = jsonError;
    EXPECT_EQ(error("[1-2]"), "JSON error at offset 2: expected ']'");
    EXPECT_EQ(error("1.2.3"), "JSON error at offset 3: trailing garbage");
    EXPECT_EQ(error("{\"seed\": 1e5e5}"),
              "JSON error at offset 12: expected '}'");
    EXPECT_EQ(error("[1..]"),
              "JSON error at offset 3: expected digit after decimal point");
    EXPECT_EQ(error("[+5]"), "JSON error at offset 1: expected number");
    EXPECT_EQ(error("[01]"), "JSON error at offset 2: expected ']'");
    EXPECT_EQ(error("[.5]"), "JSON error at offset 1: expected number");
    EXPECT_EQ(error("[1e]"),
              "JSON error at offset 3: expected digit in exponent");
    EXPECT_EQ(error("[1.e5]"),
              "JSON error at offset 3: expected digit after decimal point");
    EXPECT_EQ(error("[--1]"), "JSON error at offset 1: expected number");

    const minijson::JsonValue ok = minijson::JsonParser(
        "[0, -0, 12, -3.25, 1e3, 2E-2, 6.5e+1, 0.5, 1234567890123]").parse();
    ASSERT_EQ(ok.array.size(), 9u);
    const double want[] = {0, -0.0, 12, -3.25, 1000, 0.02, 65, 0.5,
                           1234567890123.0};
    for (std::size_t i = 0; i < 9; ++i)
        EXPECT_EQ(ok.array[i].number, want[i]) << i;
}

// ------------------------------------------------------------- job specs

TEST(ServeJobSpec, ParsesDefaultsAndRoundTripsCanonically)
{
    const ServeJobSpec s =
        parseJobSpec(parseJson("{\"workload\": \"nested-mispred\"}"));
    EXPECT_EQ(s.name, "nested-mispred"); // name defaults to workload
    EXPECT_EQ(s.scheme, "rgid");
    EXPECT_EQ(s.predictor, "tage");
    EXPECT_EQ(s.seed, 42u);

    // canonical -> parse -> canonical is a fixed point.
    const std::string canon = canonicalJobSpec(s);
    const ServeJobSpec again = parseJobSpec(parseJson(canon));
    EXPECT_EQ(canonicalJobSpec(again), canon);
}

TEST(ServeJobSpec, RejectsUnknownKeysAndBadTypes)
{
    EXPECT_THROW(parseJobSpec(parseJson(
                     "{\"workload\": \"x\", \"turbo\": true}")),
                 std::invalid_argument);
    EXPECT_THROW(parseJobSpec(parseJson("{\"workload\": 3}")),
                 std::invalid_argument);
    EXPECT_THROW(parseJobSpec(parseJson(
                     "{\"workload\": \"x\", \"iters\": -1}")),
                 std::invalid_argument);
    EXPECT_THROW(parseJobSpec(parseJson(
                     "{\"workload\": \"x\", \"iters\": 1.5}")),
                 std::invalid_argument);
    EXPECT_THROW(parseJobSpec(parseJson("{}")), std::invalid_argument);
    EXPECT_THROW(parseJobSpec(parseJson(
                     "{\"workload\": \"x\", \"scheme\": \"magic\"}")),
                 std::invalid_argument);
    // Past the limits the model asserts: the Kronecker generator's
    // scale and RegInt's power-of-two set count.
    EXPECT_NO_THROW(parseJobSpec(
        parseJson("{\"workload\": \"x\", \"scale\": 24, \"sets\": 32}")));
    EXPECT_THROW(parseJobSpec(parseJson(
                     "{\"workload\": \"x\", \"scale\": 25}")),
                 std::invalid_argument);
    EXPECT_THROW(parseJobSpec(parseJson(
                     "{\"workload\": \"x\", \"sets\": 3}")),
                 std::invalid_argument);
}

TEST(ServeJobSpec, ValidateCoversRegistryAndExclusionMatrix)
{
    ServeJobSpec s;
    s.workload = "no-such-workload";
    EXPECT_NE(validateJobSpec(s), "");

    s.workload = "nested-mispred";
    s.name = s.workload;
    EXPECT_EQ(validateJobSpec(s), "");
    ServeJobSpec unlisted = s; // buildable, though no suite lists it
    unlisted.workload = "bfsdo";
    EXPECT_EQ(validateJobSpec(unlisted), "");

    // warm_bpu needs a fast-forward prefix to warm from.
    s.warmBpu = true;
    EXPECT_NE(validateJobSpec(s), "");
    s.fastForward = 1000;
    EXPECT_EQ(validateJobSpec(s), "");

    // The sampled exclusion matrix: sampling fast-forwards itself.
    s.samplePeriod = 10000;
    s.sampleWindow = 2000;
    EXPECT_NE(validateJobSpec(s), "");
    s.warmBpu = false;
    s.fastForward = 0;
    EXPECT_EQ(validateJobSpec(s), "");
    s.sampleWindow = 20001; // window > period
    EXPECT_NE(validateJobSpec(s), "");
}

TEST(ServeJobSpec, ConfigMappingMatchesMssrRun)
{
    ServeJobSpec s;
    s.workload = "nested-mispred";
    s.scheme = "regint";
    s.predictor = "gshare";
    s.funcTier = "interp";
    s.streams = 8;
    s.entries = 64;
    s.sets = 128;
    s.ways = 2;
    const SimConfig cfg = specConfig(s);
    EXPECT_EQ(cfg.reuseKind, ReuseKind::RegInt);
    EXPECT_EQ(cfg.core.predictor, BranchPredictorKind::Gshare);
    EXPECT_EQ(cfg.funcTier, FuncTier::Interpreter);
    EXPECT_EQ(cfg.reuse.numStreams, 8u);
    EXPECT_EQ(cfg.reuse.squashLogEntriesPerStream, 64u);
    EXPECT_EQ(cfg.reuse.wpbEntriesPerStream, 16u); // entries/4
    EXPECT_EQ(cfg.regint.sets, 128u);
    EXPECT_EQ(cfg.regint.ways, 2u);

    // Each key's mssr_run flag and JSON spellings describe the same
    // job: one non-default value set through either gives one
    // canonical spec.
    ServeJobSpec defaults;
    defaults.workload = defaults.name = "nested-mispred";
    for (const JobKey &key : jobKeys()) {
        if (!key.flag)
            continue;
        std::string text, json;
        std::visit(
            [&](auto member) {
                using T = std::decay_t<decltype(s.*member)>;
                if constexpr (std::is_same_v<T, bool>) {
                    json = "true";
                } else if constexpr (std::is_same_v<T, std::string>) {
                    const std::string choices = key.choices;
                    text = choices.substr(choices.rfind('|') + 1);
                    json = "\"" + text + "\"";
                } else {
                    text = json = "16";
                }
            },
            key.member);
        ServeJobSpec viaFlag = defaults;
        ASSERT_TRUE(parseJobFlag(viaFlag, key.flag, [&] { return text; }));
        const ServeJobSpec viaJson = parseJobSpec(parseJson(
            "{\"workload\": \"nested-mispred\", \"" +
            std::string(key.json) + "\": " + json + "}"));
        EXPECT_EQ(canonicalJobSpec(viaFlag), canonicalJobSpec(viaJson))
            << key.flag;
        EXPECT_NE(canonicalJobSpec(viaFlag), canonicalJobSpec(defaults))
            << key.flag;
    }
    EXPECT_FALSE(parseJobFlag(defaults, "--jobs", [] { return "4"; }));
}

TEST(ServeJobSpec, BaselineInheritsEverythingButTheReuseScheme)
{
    ServeJobSpec s;
    s.workload = s.name = "nested-mispred";
    s.scheme = "regint";
    s.predictor = "bimodal";
    s.streams = 8;
    s.entries = 128;
    s.sets = 32;
    s.ways = 2;
    s.bloom = true;
    s.fastForward = 2000;
    s.warmBpu = true;
    s.maxInsts = 5000;
    const ServeJobSpec base = baselineJobSpec(s);
    ServeJobSpec expected;
    expected.workload = expected.name = "nested-mispred";
    expected.scheme = "none";
    expected.predictor = "bimodal";
    expected.fastForward = 2000;
    expected.warmBpu = true;
    expected.maxInsts = 5000;
    EXPECT_EQ(canonicalJobSpec(base), canonicalJobSpec(expected));
}

// -------------------------------------------------------------- journal

TEST(ServeJournal, RoundTripsEventsAndRawRecordText)
{
    TempDir dir;
    const std::string path = dir.file("journal.jsonl");
    // The record text must survive byte-for-byte: 0.30000000000000004
    // would re-serialize differently through a double round-trip.
    const std::string record =
        "{\"name\": \"a b\", \"ipc\": 0.30000000000000004}";
    {
        ServeJournal j;
        ASSERT_TRUE(j.open(path));
        j.appendSubmit(1, "lbl", {"{\"workload\": \"w\"}"});
        j.appendDone(1, 0, record);
        j.appendCancel(2);
        j.appendFail(3, "boom");
    }
    const auto events = ServeJournal::load(path);
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].event, "submit");
    EXPECT_EQ(events[0].batch, 1u);
    EXPECT_EQ(events[0].label, "lbl");
    ASSERT_EQ(events[0].jobs.size(), 1u);
    EXPECT_EQ(events[1].event, "done");
    EXPECT_EQ(events[1].job, 0u);
    EXPECT_EQ(events[1].record, record);
    EXPECT_EQ(events[2].event, "cancel");
    EXPECT_EQ(events[2].batch, 2u);
    EXPECT_EQ(events[3].event, "fail");
    EXPECT_EQ(events[3].message, "boom");
}

TEST(ServeJournal, ToleratesTornFinalLineOnly)
{
    TempDir dir;
    const std::string path = dir.file("journal.jsonl");
    {
        ServeJournal j;
        ASSERT_TRUE(j.open(path));
        j.appendCancel(1);
    }
    // A crash mid-append leaves a torn final line: legal, dropped.
    {
        std::ofstream f(path, std::ios::app);
        f << "{\"event\": \"cancel\", \"bat";
    }
    EXPECT_EQ(ServeJournal::load(path).size(), 1u);

    // The same garbage mid-file is corruption, not a torn tail.
    std::filesystem::remove(path);
    {
        std::ofstream f(path);
        f << "{\"schema\": \"mssr-serve-journal-v1\"}\n"
          << "{\"event\": \"can\n" // corrupt, NOT final
          << "{\"event\": \"cancel\", \"batch\": 2}\n";
    }
    EXPECT_THROW(ServeJournal::load(path), std::runtime_error);
}

TEST(ServeJournal, RejectsForeignSchema)
{
    TempDir dir;
    const std::string path = dir.file("journal.jsonl");
    {
        std::ofstream f(path);
        f << "{\"schema\": \"something-else\"}\n";
    }
    EXPECT_THROW(ServeJournal::load(path), std::runtime_error);
}

// ------------------------------------------------------------ ServeCore

ServeOptions
queueOnlyOptions()
{
    // No scheduler: requests manipulate the queue deterministically.
    ServeOptions o;
    o.startScheduler = false;
    return o;
}

TEST(ServeCore, SubmitStatusCancelLifecycle)
{
    ServeCore core(queueOnlyOptions());
    const JsonValue sub = parseJson(core.handleRequest(
        "{\"type\": \"submit\", \"label\": \"sweep\", \"jobs\": "
        "[{\"workload\": \"nested-mispred\", \"iters\": 50}]}"));
    ASSERT_TRUE(okReply(sub));
    EXPECT_EQ(numField(sub, "batch"), 1.0);
    EXPECT_EQ(numField(sub, "jobs"), 1.0);
    EXPECT_EQ(core.pendingJobs(), 1u);

    const JsonValue st =
        parseJson(core.handleRequest("{\"type\": \"status\"}"));
    ASSERT_TRUE(okReply(st));
    EXPECT_EQ(numField(st, "queue_depth"), 1.0);
    ASSERT_EQ(st.object.at("batches").array.size(), 1u);
    EXPECT_EQ(strField(st.object.at("batches").array[0], "state"),
              "queued");

    const JsonValue cancel = parseJson(core.handleRequest(
        "{\"type\": \"cancel\", \"batch\": 1}"));
    ASSERT_TRUE(okReply(cancel));
    EXPECT_EQ(core.pendingJobs(), 0u);
    const JsonValue again = parseJson(core.handleRequest(
        "{\"type\": \"cancel\", \"batch\": 1}"));
    EXPECT_FALSE(okReply(again));
    EXPECT_EQ(strField(again, "error"), "not_cancellable");
}

TEST(ServeCore, StructuredErrorsNeverThrow)
{
    ServeCore core(queueOnlyOptions());
    const struct
    {
        const char *request;
        const char *code;
    } cases[] = {
        {"not json at all", "bad_request"},
        {"[1, 2]", "bad_request"},
        {"{\"type\": \"frobnicate\"}", "unknown_type"},
        {"{\"type\": \"submit\", \"jobs\": []}", "bad_request"},
        {"{\"type\": \"submit\", \"jobs\": [{\"workload\": \"nope\"}]}",
         "invalid_job"},
        {"{\"type\": \"submit\", \"jobs\": [{\"workload\": "
         "\"nested-mispred\", \"warm_bpu\": true}]}",
         "invalid_job"},
        {"{\"type\": \"status\", \"batch\": 99}", "unknown_batch"},
        {"{\"type\": \"results\", \"batch\": 99}", "unknown_batch"},
        {"{\"type\": \"results\"}", "bad_request"},
    };
    for (const auto &c : cases) {
        const JsonValue reply = parseJson(core.handleRequest(c.request));
        EXPECT_FALSE(okReply(reply)) << c.request;
        EXPECT_EQ(strField(reply, "error"), c.code) << c.request;
    }
    EXPECT_EQ(core.pendingJobs(), 0u); // nothing slipped into the queue
}

TEST(ServeCore, QueueFullAndDrainingBackpressure)
{
    ServeOptions o = queueOnlyOptions();
    o.queueMax = 2;
    ServeCore core(o);
    const std::string two =
        "{\"type\": \"submit\", \"jobs\": ["
        "{\"workload\": \"nested-mispred\"}, "
        "{\"workload\": \"nested-mispred\"}]}";
    ASSERT_TRUE(okReply(parseJson(core.handleRequest(two))));
    const JsonValue full = parseJson(core.handleRequest(two));
    EXPECT_FALSE(okReply(full));
    EXPECT_EQ(strField(full, "error"), "queue_full");

    ASSERT_TRUE(okReply(
        parseJson(core.handleRequest("{\"type\": \"drain\"}"))));
    const JsonValue drained = parseJson(core.handleRequest(
        "{\"type\": \"submit\", \"jobs\": "
        "[{\"workload\": \"nested-mispred\"}]}"));
    EXPECT_FALSE(okReply(drained));
    EXPECT_EQ(strField(drained, "error"), "draining");
    // Cancelling the queued batch frees its slots again.
    ASSERT_TRUE(okReply(parseJson(
        core.handleRequest("{\"type\": \"cancel\", \"batch\": 1}"))));
    EXPECT_EQ(core.pendingJobs(), 0u);
}

TEST(ServeCore, OutOfRangeKnobIsInvalidJobAndNeverJournaled)
{
    TempDir dir;
    ServeOptions o = queueOnlyOptions();
    o.journalPath = dir.file("journal.jsonl");
    {
        ServeCore core(o);
        // Numbers past uint64_t's range too: the range check must come
        // before the cast (UBSan's float-cast-overflow catches a cast
        // of 1e30).
        for (const auto &[job, why] :
             {std::pair{"{\"workload\": \"bfs\", \"scale\": 25}",
                        "field 'scale' must be <= 24"},
              std::pair{"{\"workload\": \"nested-mispred\", \"scheme\": "
                        "\"regint\", \"sets\": 3}",
                        "field 'sets' must be a power of two"},
              std::pair{"{\"workload\": \"bfs\", \"seed\": 1e30}",
                        "field 'seed' must be a non-negative integer"},
              std::pair{"{\"workload\": \"bfs\", \"seed\": "
                        "18446744073709551616}",
                        "field 'seed' must be a non-negative integer"}}) {
            const JsonValue reply = parseJson(core.handleRequest(
                std::string("{\"type\": \"submit\", \"jobs\": [") + job +
                "]}"));
            EXPECT_FALSE(okReply(reply)) << job;
            EXPECT_EQ(strField(reply, "error"), "invalid_job") << job;
            EXPECT_EQ(strField(reply, "message"), std::string("job 0: ") + why)
                << job;
        }
        EXPECT_EQ(core.pendingJobs(), 0u);
    }
    EXPECT_TRUE(ServeJournal::load(o.journalPath).empty());
}

TEST(ServeCore, PingReportsSchema)
{
    ServeCore core(queueOnlyOptions());
    const JsonValue reply =
        parseJson(core.handleRequest("{\"type\": \"ping\"}"));
    ASSERT_TRUE(okReply(reply));
    EXPECT_EQ(strField(reply, "schema"), "mssr-serve-v1");
}

/** Polls `status` until batch @p id settles; returns its state. */
std::string
awaitBatch(ServeCore &core, int id)
{
    for (int spin = 0; spin < 6000; ++spin) {
        const JsonValue st = parseJson(core.handleRequest(
            "{\"type\": \"status\", \"batch\": " + std::to_string(id) +
            "}"));
        const std::string state = strField(st, "state");
        if (state != "queued" && state != "running")
            return state;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return "timeout";
}

TEST(ServeCore, DoubleSubmitStreamsByteIdenticalRecords)
{
    TempDir dir;
    ServeOptions o;
    o.journalPath = dir.file("journal.jsonl");
    o.resultsPath = dir.file("results.jsonl");
    o.threads = 2;
    ServeCore core(o);
    const std::string submit =
        "{\"type\": \"submit\", \"jobs\": ["
        "{\"name\": \"a\", \"workload\": \"nested-mispred\", "
        "\"iters\": 80, \"scale\": 6}, "
        "{\"name\": \"b\", \"workload\": \"nested-mispred\", "
        "\"scheme\": \"none\", \"iters\": 80, \"scale\": 6}]}";
    ASSERT_TRUE(okReply(parseJson(core.handleRequest(submit))));
    ASSERT_TRUE(okReply(parseJson(core.handleRequest(submit))));
    ASSERT_EQ(awaitBatch(core, 1), "done");
    ASSERT_EQ(awaitBatch(core, 2), "done");

    const std::string r1 = core.handleRequest(
        "{\"type\": \"results\", \"batch\": 1, \"since\": 0}");
    const std::string r2 = core.handleRequest(
        "{\"type\": \"results\", \"batch\": 2, \"since\": 0}");
    // Identical except the batch id in the envelope: compare the
    // records arrays themselves.
    const auto records = [](const std::string &reply) {
        const auto at = reply.find("\"records\"");
        return reply.substr(at);
    };
    EXPECT_EQ(records(r1), records(r2));
    EXPECT_NE(records(r1).find("\"name\": \"a\""), std::string::npos);

    // `since` pagination: the tail after the first record.
    const JsonValue page = parseJson(core.handleRequest(
        "{\"type\": \"results\", \"batch\": 1, \"since\": 1}"));
    ASSERT_TRUE(okReply(page));
    EXPECT_EQ(numField(page, "next"), 2.0);
    ASSERT_EQ(page.object.at("records").array.size(), 1u);
    EXPECT_EQ(strField(page.object.at("records").array[0], "name"), "b");

    core.beginShutdown();
    core.finish();
}

TEST(ServeCore, JournalResumeServesOnlyTheRemainder)
{
    TempDir dir;
    ServeOptions o;
    o.journalPath = dir.file("journal.jsonl");
    o.threads = 1;
    std::string firstResults;
    {
        ServeCore core(o);
        ASSERT_TRUE(okReply(parseJson(core.handleRequest(
            "{\"type\": \"submit\", \"jobs\": ["
            "{\"name\": \"a\", \"workload\": \"nested-mispred\", "
            "\"iters\": 60, \"scale\": 6}, "
            "{\"name\": \"b\", \"workload\": \"nested-mispred\", "
            "\"iters\": 60, \"scale\": 6, \"seed\": 7}]}"))));
        ASSERT_EQ(awaitBatch(core, 1), "done");
        firstResults = core.handleRequest(
            "{\"type\": \"results\", \"batch\": 1, \"since\": 0}");
        core.beginShutdown();
        core.finish();
    }

    // Forge the crash: drop the second job's `done` line, as if the
    // process died between the two completions.
    std::vector<std::string> lines;
    {
        std::ifstream in(o.journalPath);
        std::string line;
        while (std::getline(in, line))
            if (!line.empty())
                lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 4u); // header, submit, done, done
    {
        std::ofstream out(o.journalPath, std::ios::trunc);
        for (std::size_t i = 0; i + 1 < lines.size(); ++i)
            out << lines[i] << "\n";
    }

    ServeCore core(o);
    EXPECT_EQ(core.resumedJobs(), 1u);
    EXPECT_EQ(core.pendingJobs(), 1u); // only the dropped job re-queues
    ASSERT_EQ(awaitBatch(core, 1), "done");
    const std::string secondResults = core.handleRequest(
        "{\"type\": \"results\", \"batch\": 1, \"since\": 0}");
    EXPECT_EQ(secondResults, firstResults);
    core.beginShutdown();
    core.finish();

    // The healed journal must hold exactly one extra done line and no
    // duplicated job index.
    std::size_t dones = 0;
    std::ifstream in(o.journalPath);
    std::string line;
    while (std::getline(in, line))
        dones += line.find("\"event\": \"done\"") != std::string::npos;
    EXPECT_EQ(dones, 2u);
}

/** A submit request for @p jobs, a comma-separated list of specs. */
std::string
submitJobs(const std::string &jobs)
{
    return "{\"type\": \"submit\", \"jobs\": [" + jobs + "]}";
}

/** Batch @p id's records array, from its `results` reply on. */
std::string
batchRecords(ServeCore &core, int id)
{
    const std::string reply = core.handleRequest(
        "{\"type\": \"results\", \"batch\": " + std::to_string(id) +
        ", \"since\": 0}");
    return reply.substr(reply.find("\"records\""));
}

/** Lines of @p journal holding a `done` event. */
std::size_t
doneLines(const std::string &journal)
{
    std::size_t dones = 0;
    std::ifstream in(journal);
    std::string line;
    while (std::getline(in, line))
        dones += line.find("\"event\": \"done\"") != std::string::npos;
    return dones;
}

TEST(ServeCore, DrainedSampledJobIsNotJournaledAndResumesWhole)
{
    // A 200-window sampled job drained after its first windows: no
    // `done` line may reach the journal (a restarted daemon would
    // serve a merge of the windows that ran as final), and a restart
    // on the journal reruns it into the record of an uninterrupted run.
    const std::string job =
        "{\"name\": \"long\", \"workload\": \"nested-mispred\", "
        "\"scale\": 6, \"iters\": 20000, \"sample_period\": 10000, "
        "\"sample_window\": 2000}";
    TempDir dir;
    ServeOptions o;
    o.journalPath = dir.file("journal.jsonl");
    o.threads = 1;
    Counter &windowsDone = MetricsRegistry::global().counter(
        "mssr_batch_jobs_done_total", "Simulation jobs completed");
    {
        ServeCore core(o);
        const std::uint64_t before = windowsDone.value();
        ASSERT_TRUE(okReply(parseJson(core.handleRequest(submitJobs(job)))));
        for (int spin = 0; spin < 120000 && windowsDone.value() == before;
             ++spin)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_GT(windowsDone.value(), before) << "no window finished";
        core.beginShutdown();
        core.finish();
        const JsonValue st = parseJson(core.handleRequest(
            "{\"type\": \"status\", \"batch\": 1}"));
        EXPECT_EQ(strField(st, "state"), "queued");
        EXPECT_EQ(numField(st, "done"), 0.0);
    }
    EXPECT_EQ(doneLines(o.journalPath), 0u);

    std::string resumed;
    {
        ServeCore core(o);
        EXPECT_EQ(core.pendingJobs(), 1u);
        ASSERT_EQ(awaitBatch(core, 1), "done");
        resumed = batchRecords(core, 1);
    }
    EXPECT_EQ(doneLines(o.journalPath), 1u);

    ServeOptions fresh;
    fresh.threads = 1;
    ServeCore core(fresh);
    ASSERT_TRUE(okReply(parseJson(core.handleRequest(submitJobs(job)))));
    ASSERT_EQ(awaitBatch(core, 1), "done");
    EXPECT_EQ(resumed, batchRecords(core, 1));
    EXPECT_NE(resumed.find("\"insts\": 400000"), std::string::npos);
}

TEST(ServeCore, SampledDesignPointsShareOneScan)
{
    // Three design points sampling one program in one batch: one scan
    // writes the schedule's K checkpoints to the fresh store, and no
    // job reads them back.
    const std::string point = "\"workload\": \"nested-mispred\", "
                              "\"scale\": 6, \"iters\": 400, "
                              "\"sample_period\": 2000, "
                              "\"sample_window\": 500";
    const ServeJobSpec spec = parseJobSpec(parseJson("{" + point + "}"));
    const isa::Program prog =
        workloads::buildWorkload(spec.workload, specScale(spec));
    const std::uint64_t k =
        buildSampleSchedule(prog, spec.samplePeriod).checkpoints.size();
    ASSERT_GT(k, 1u);

    TempDir dir;
    ServeOptions o;
    o.ckptDir = dir.file("ckpt");
    o.threads = 2;
    ServeCore core(o);
    registerCheckpointStoreMetrics();
    MetricsRegistry &reg = MetricsRegistry::global();
    Counter &hits = reg.counter("mssr_ckpt_store_hits_total", "");
    Counter &misses = reg.counter("mssr_ckpt_store_misses_total", "");
    const std::uint64_t hits0 = hits.value();
    const std::uint64_t misses0 = misses.value();
    ASSERT_TRUE(okReply(parseJson(core.handleRequest(submitJobs(
        "{\"name\": \"rgid\", " + point + "}, "
        "{\"name\": \"none\", \"scheme\": \"none\", " + point + "}, "
        "{\"name\": \"regint\", \"scheme\": \"regint\", " + point +
        "}")))));
    ASSERT_EQ(awaitBatch(core, 1), "done");
    EXPECT_EQ(hits.value() - hits0, 0u);
    EXPECT_EQ(misses.value() - misses0, k);
}

TEST(ServeCore, CorruptJournalRefusesToServe)
{
    TempDir dir;
    ServeOptions o = queueOnlyOptions();
    o.journalPath = dir.file("journal.jsonl");
    {
        std::ofstream f(o.journalPath);
        f << "{\"schema\": \"mssr-serve-journal-v1\"}\n"
          << "{\"event\": \"done\", \"batch\": 1, \"job\": 0, "
             "\"record\": {}}\n"; // done for a batch never submitted
    }
    EXPECT_THROW(ServeCore core(o), std::runtime_error);
}

} // namespace
