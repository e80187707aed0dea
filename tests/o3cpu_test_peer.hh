/**
 * @file
 * O3CpuTestPeer, the one friend O3Cpu grants tests. Shared by every
 * test file that needs it, since the test binary links them together.
 */

#ifndef MSSR_TESTS_O3CPU_TEST_PEER_HH
#define MSSR_TESTS_O3CPU_TEST_PEER_HH

#include <set>
#include <sstream>
#include <string>

#include "core/o3cpu.hh"

namespace mssr
{

/**
 * White-box access to O3Cpu internals for regression tests: the squash
 * arbiter, the in-flight instruction pool and the issue queues' ready
 * bits.
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
        for (const auto &slot : cpu.frontPipe_)
            held.insert(slot.inst.get());
        for (const auto &bucket : cpu.wbWheel_)
            for (const DynInstPtr &inst : bucket)
                held.insert(inst.get());
        if (cpu.pendingSquash_.cause)
            held.insert(cpu.pendingSquash_.cause.get());
        return held.size();
    }

    /** Queued entries readyMismatch() has seen, by ready bit. */
    struct ReadyCount
    {
        std::uint64_t ready = 0;
        std::uint64_t waiting = 0;
    };

    /**
     * Compares every queued issue-queue entry's ready bit with what
     * polling would decide: srcsReady(), or verifyPending for a load
     * that re-executes to verify a reused value. Returns the first
     * disagreement as text ("" when there is none) and counts the
     * entries it compared into @p seen.
     */
    static std::string
    readyMismatch(const O3Cpu &cpu, ReadyCount &seen)
    {
        std::string out;
        auto check = [&](const char *queue) {
            return [&, queue](const DynInstPtr &inst, bool ready) {
                ++(ready ? seen.ready : seen.waiting);
                const bool expect =
                    inst->verifyPending || cpu.srcsReady(inst);
                if (ready != expect && out.empty()) {
                    std::ostringstream os;
                    os << queue << " seq " << inst->seq << " pc 0x"
                       << std::hex << inst->pc << std::dec
                       << ": ready bit " << ready << ", sources say "
                       << expect;
                    out = os.str();
                }
            };
        };
        cpu.iqInt_.forEach(check("int"));
        cpu.iqMem_.forEach(check("mem"));
        return out;
    }
};

} // namespace mssr

#endif // MSSR_TESTS_O3CPU_TEST_PEER_HH
