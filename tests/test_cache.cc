#include <gtest/gtest.h>

#include "common/config.hh"
#include "memsys/cache.hh"
#include "memsys/hierarchy.hh"

using namespace mssr;

TEST(Cache, HitAfterMiss)
{
    Cache cache("c", 1024, 2, 64, 3);
    EXPECT_FALSE(cache.access(0x1000, false));
    EXPECT_TRUE(cache.access(0x1000, false));
    EXPECT_TRUE(cache.access(0x103f, false)); // same line
    EXPECT_FALSE(cache.access(0x1040, false)); // next line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruReplacement)
{
    // 2-way, 64B lines, 2 sets: way size 128.
    Cache cache("c", 256, 2, 64, 1);
    const unsigned setStride = 2 * 64; // addresses mapping to set 0
    cache.access(0 * setStride, false);
    cache.access(1 * setStride, false);
    cache.access(0 * setStride, false);       // touch line A (MRU)
    cache.access(2 * setStride, false);       // evicts line B (LRU)
    EXPECT_TRUE(cache.probe(0 * setStride));
    EXPECT_FALSE(cache.probe(1 * setStride));
    EXPECT_TRUE(cache.probe(2 * setStride));
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(Cache, DirtyWritebacks)
{
    Cache cache("c", 128, 1, 64, 1); // direct-mapped, 2 sets
    cache.access(0x0, true);          // dirty
    cache.access(0x80, false);        // evicts dirty line
    EXPECT_EQ(cache.writebacks(), 1u);
    cache.access(0x100, false);
    cache.access(0x180, false);       // evicts clean line
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(Hierarchy, LatencyComposition)
{
    CoreConfig cfg; // Table 3: L1 3c, L2 12c, DRAM 120c
    MemHierarchy mh(cfg);
    // Cold: L1 miss + L2 miss -> 3 + 12 + 120.
    EXPECT_EQ(mh.loadLatency(0x10000), 3u + 12u + 120u);
    // L1 hit now.
    EXPECT_EQ(mh.loadLatency(0x10000), 3u);
    // A line evicted from L1 but present in L2 costs 3 + 12: create
    // conflict by walking one set far enough (4-way L1).
    const unsigned l1Sets = cfg.l1dSizeBytes / cfg.l1dAssoc /
                            cfg.cacheLineBytes;
    const Addr stride = static_cast<Addr>(l1Sets) * cfg.cacheLineBytes;
    for (unsigned i = 1; i <= cfg.l1dAssoc; ++i)
        mh.loadLatency(0x10000 + i * stride);
    EXPECT_EQ(mh.loadLatency(0x10000), 3u + 12u);
}

TEST(Hierarchy, StoreAllocates)
{
    CoreConfig cfg;
    MemHierarchy mh(cfg);
    mh.storeAccess(0x20000);
    EXPECT_EQ(mh.loadLatency(0x20000), cfg.l1dLatency);
}
