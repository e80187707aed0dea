/**
 * @file
 * Return address stack with snapshot-based squash repair: each
 * prediction block snapshots (top pointer, top value); a redirect
 * restores both, which repairs the common single-divergence case.
 */

#ifndef MSSR_BPU_RAS_HH
#define MSSR_BPU_RAS_HH

#include <vector>

#include "common/types.hh"

namespace mssr
{

class Ras
{
  public:
    explicit Ras(unsigned entries = 32);

    struct Snapshot
    {
        unsigned top = 0;
        Addr tos = 0;
    };

    void push(Addr return_addr);
    Addr pop();

    Snapshot snapshot() const;
    void restore(const Snapshot &snap);

  private:
    std::vector<Addr> stack_;
    unsigned top_ = 0;
};

} // namespace mssr

#endif // MSSR_BPU_RAS_HH
