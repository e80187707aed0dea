/**
 * Hardened environment-variable parsing: every numeric/boolean knob
 * (MSSR_SCALE, MSSR_ITERS, MSSR_SEED, MSSR_FF,
 * MSSR_PROFILE, ...) follows the MSSR_JOBS contract -- unset uses the
 * default, garbage or out-of-range values warn on stderr and fall
 * back, valid values parse exactly. The seed fed these through
 * atoi(), so "12x" silently ran at scale 12 and "abc" at scale 0.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/argparse.hh"
#include "workloads/registry.hh"

using namespace mssr;

namespace
{

/** Scoped setenv/unsetenv so tests cannot leak into each other. */
class EnvGuard
{
  public:
    explicit EnvGuard(const char *name) : name_(name) { unsetenv(name); }
    ~EnvGuard() { unsetenv(name_); }

    void
    set(const char *value)
    {
        setenv(name_, value, 1);
    }

  private:
    const char *name_;
};

TEST(EnvParseTest, EnvU64UnsetUsesFallback)
{
    EnvGuard guard("MSSR_TEST_U64");
    EXPECT_EQ(123u, envU64("MSSR_TEST_U64", 123));
}

TEST(EnvParseTest, EnvU64ParsesValidValues)
{
    EnvGuard guard("MSSR_TEST_U64");
    guard.set("42");
    EXPECT_EQ(42u, envU64("MSSR_TEST_U64", 0));
    guard.set("0");
    EXPECT_EQ(0u, envU64("MSSR_TEST_U64", 7));
}

TEST(EnvParseTest, EnvU64RejectsGarbage)
{
    EnvGuard guard("MSSR_TEST_U64");
    for (const char *bad : {"abc", "12x", "-3", "1.5", "", " 4", "0x10"}) {
        guard.set(bad);
        testing::internal::CaptureStderr();
        EXPECT_EQ(99u, envU64("MSSR_TEST_U64", 99)) << "input: " << bad;
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(std::string::npos, err.find("warn: ")) << "input: " << bad;
        EXPECT_NE(std::string::npos, err.find("MSSR_TEST_U64"))
            << "input: " << bad;
    }
}

TEST(EnvParseTest, EnvU64EnforcesRange)
{
    EnvGuard guard("MSSR_TEST_U64");
    guard.set("0");
    testing::internal::CaptureStderr();
    EXPECT_EQ(10u, envU64("MSSR_TEST_U64", 10, 1, 30));
    EXPECT_NE(std::string::npos,
              testing::internal::GetCapturedStderr().find("warn: "));

    guard.set("31");
    testing::internal::CaptureStderr();
    EXPECT_EQ(10u, envU64("MSSR_TEST_U64", 10, 1, 30));
    EXPECT_NE(std::string::npos,
              testing::internal::GetCapturedStderr().find("warn: "));

    guard.set("30");
    EXPECT_EQ(30u, envU64("MSSR_TEST_U64", 10, 1, 30));
}

TEST(EnvParseTest, EnvFlagContract)
{
    EnvGuard guard("MSSR_TEST_FLAG");
    EXPECT_FALSE(envFlag("MSSR_TEST_FLAG")) << "unset is off";
    for (const char *on : {"1", "true", "yes", "on"}) {
        guard.set(on);
        EXPECT_TRUE(envFlag("MSSR_TEST_FLAG")) << "input: " << on;
    }
    for (const char *off : {"0", "false", "no", "off", ""}) {
        guard.set(off);
        EXPECT_FALSE(envFlag("MSSR_TEST_FLAG")) << "input: " << off;
    }
    guard.set("banana");
    testing::internal::CaptureStderr();
    EXPECT_FALSE(envFlag("MSSR_TEST_FLAG")) << "garbage treated as unset";
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(std::string::npos, err.find("warn: "));
    EXPECT_NE(std::string::npos, err.find("MSSR_TEST_FLAG"));
}

TEST(EnvParseTest, WorkloadScaleRejectsGarbage)
{
    EnvGuard scale("MSSR_SCALE");
    EnvGuard iters("MSSR_ITERS");
    EnvGuard seed("MSSR_SEED");
    const workloads::WorkloadScale defaults;

    scale.set("12x");
    iters.set("abc");
    seed.set("-1");
    testing::internal::CaptureStderr();
    const workloads::WorkloadScale parsed = workloads::WorkloadScale::fromEnv();
    const std::string err = testing::internal::GetCapturedStderr();

    EXPECT_EQ(defaults.graphScale, parsed.graphScale);
    EXPECT_EQ(defaults.iterations, parsed.iterations);
    EXPECT_EQ(defaults.seed, parsed.seed);
    EXPECT_NE(std::string::npos, err.find("MSSR_SCALE"));
    EXPECT_NE(std::string::npos, err.find("MSSR_ITERS"));
    EXPECT_NE(std::string::npos, err.find("MSSR_SEED"));
}

TEST(EnvParseTest, WorkloadScaleParsesValidValues)
{
    EnvGuard scale("MSSR_SCALE");
    EnvGuard iters("MSSR_ITERS");
    EnvGuard seed("MSSR_SEED");

    scale.set("8");
    iters.set("500");
    seed.set("77");
    const workloads::WorkloadScale parsed = workloads::WorkloadScale::fromEnv();
    EXPECT_EQ(8u, parsed.graphScale);
    EXPECT_EQ(500u, parsed.iterations);
    EXPECT_EQ(77u, parsed.seed);
}

TEST(EnvParseTest, WorkloadScaleEnforcesScaleBounds)
{
    EnvGuard scale("MSSR_SCALE");
    const workloads::WorkloadScale defaults;

    // graphScale is a log2 vertex count; 31+ would overflow the graph
    // generator, 0 is degenerate. Both fall back with a warning.
    scale.set("0");
    testing::internal::CaptureStderr();
    EXPECT_EQ(defaults.graphScale,
              workloads::WorkloadScale::fromEnv().graphScale);
    EXPECT_NE(std::string::npos,
              testing::internal::GetCapturedStderr().find("warn: "));

    scale.set("64");
    testing::internal::CaptureStderr();
    EXPECT_EQ(defaults.graphScale,
              workloads::WorkloadScale::fromEnv().graphScale);
    EXPECT_NE(std::string::npos,
              testing::internal::GetCapturedStderr().find("warn: "));

    // One past the graph generator's limit (workloads::MaxGraphScale).
    scale.set("25");
    testing::internal::CaptureStderr();
    EXPECT_EQ(defaults.graphScale,
              workloads::WorkloadScale::fromEnv().graphScale);
    EXPECT_NE(std::string::npos,
              testing::internal::GetCapturedStderr().find("warn: "));
}

} // namespace
