/**
 * @file
 * O3CpuTestPeer, the one friend O3Cpu grants tests. Shared by every
 * test file that needs it, since the test binary links them together.
 */

#ifndef MSSR_TESTS_O3CPU_TEST_PEER_HH
#define MSSR_TESTS_O3CPU_TEST_PEER_HH

#include <set>

#include "core/o3cpu.hh"

namespace mssr
{

/**
 * White-box access to O3Cpu internals for regression tests: the squash
 * arbiter and the in-flight instruction pool.
 */
struct O3CpuTestPeer
{
    static void
    requestSquash(O3Cpu &cpu, SeqNum after_seq, Addr redirect,
                  DynInstPtr cause, SquashReason reason)
    {
        cpu.requestSquash(after_seq, redirect, std::move(cause), reason);
    }

    struct Pending
    {
        bool valid;
        SeqNum afterSeq;
        Addr redirectPC;
        SeqNum causeSeq;
        SquashReason reason;
    };

    static Pending
    pending(const O3Cpu &cpu)
    {
        const auto &p = cpu.pendingSquash_;
        return {p.valid, p.afterSeq, p.redirectPC,
                p.cause ? p.cause->seq : 0, p.reason};
    }

    static void
    clearPending(O3Cpu &cpu)
    {
        cpu.pendingSquash_ = O3Cpu::PendingSquash{};
    }

    static const DynInstPool &
    pool(const O3Cpu &cpu)
    {
        return cpu.pool_;
    }

    /**
     * Distinct instructions the pipeline still holds: the ROB (which
     * also covers the issue queues and the LSQ), the frontend pipe,
     * pending writebacks (squashed ones included) and a pending
     * squash's cause.
     */
    static std::size_t
    inFlight(const O3Cpu &cpu)
    {
        std::set<const DynInst *> held;
        for (const DynInstPtr &inst : cpu.rob_)
            held.insert(inst.get());
        for (const DynInstPtr &inst : cpu.frontPipe_)
            held.insert(inst.get());
        for (const auto &event : cpu.wbQueue_)
            held.insert(event.inst.get());
        if (cpu.pendingSquash_.cause)
            held.insert(cpu.pendingSquash_.cause.get());
        return held.size();
    }
};

} // namespace mssr

#endif // MSSR_TESTS_O3CPU_TEST_PEER_HH
