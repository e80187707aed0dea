#include "memsys/cache.hh"

#include "common/bitops.hh"
#include "common/log.hh"

namespace mssr
{

Cache::Cache(std::string name, std::size_t size_bytes, unsigned assoc,
             unsigned line_bytes, unsigned latency)
    : name_(std::move(name)),
      assoc_(assoc),
      lineBytes_(line_bytes),
      latency_(latency)
{
    mssr_assert(isPow2(line_bytes), "cache line size must be a power of 2");
    mssr_assert(assoc > 0);
    mssr_assert(size_bytes % (static_cast<std::size_t>(assoc) * line_bytes)
                    == 0,
                "cache size not divisible by way size");
    numSets_ = static_cast<unsigned>(size_bytes / assoc / line_bytes);
    mssr_assert(isPow2(numSets_), "number of sets must be a power of 2");
    lines_.resize(static_cast<std::size_t>(numSets_) * assoc_);
}

std::size_t
Cache::setIndex(Addr addr) const
{
    return (addr / lineBytes_) & (numSets_ - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr / lineBytes_ / numSets_;
}

Cache::Line *
Cache::findLine(Addr addr)
{
    const std::size_t base = setIndex(addr) * assoc_;
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < assoc_; ++w) {
        Line &line = lines_[base + w];
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

bool
Cache::access(Addr addr, bool is_write)
{
    ++lruClock_;
    if (Line *line = findLine(addr)) {
        ++hits_;
        line->lruStamp = lruClock_;
        line->dirty |= is_write;
        return true;
    }
    ++misses_;
    // Allocate: pick invalid way, else LRU victim.
    const std::size_t base = setIndex(addr) * assoc_;
    Line *victim = &lines_[base];
    for (unsigned w = 0; w < assoc_; ++w) {
        Line &line = lines_[base + w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lruStamp < victim->lruStamp)
            victim = &line;
    }
    if (victim->valid) {
        ++evictions_;
        if (victim->dirty)
            ++writebacks_;
    }
    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = tagOf(addr);
    victim->lruStamp = lruClock_;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    return findLine(addr) != nullptr;
}

void
Cache::reportStats(StatSet &stats) const
{
    stats.set(name_ + ".hits", static_cast<double>(hits_));
    stats.set(name_ + ".misses", static_cast<double>(misses_));
    stats.set(name_ + ".evictions", static_cast<double>(evictions_));
    stats.set(name_ + ".writebacks", static_cast<double>(writebacks_));
    const double total = static_cast<double>(hits_ + misses_);
    stats.set(name_ + ".missRate",
              total == 0 ? 0.0 : static_cast<double>(misses_) / total);
}

void
Cache::resetStats()
{
    hits_ = misses_ = evictions_ = writebacks_ = 0;
}

} // namespace mssr
