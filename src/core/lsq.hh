/**
 * @file
 * Load-Store Queue: 96-entry load queue + 96-entry store queue
 * (Table 3). Loads issue speculatively with respect to older stores
 * with unknown addresses; store-to-load forwarding is performed from
 * the youngest older matching store; when a store resolves its address
 * it searches younger executed loads for overlap and reports memory-
 * order violations (XiangShan-style checking, paper section 3.8.1).
 *
 * Both queues are rings sized at construction. A queued instruction's
 * lqIdx/sqIdx is its ring slot (-1 when not in the LSQ), so resolving
 * a store or executing a load goes straight to its entry.
 */

#ifndef MSSR_CORE_LSQ_HH
#define MSSR_CORE_LSQ_HH

#include "common/ring.hh"
#include "common/types.hh"
#include "core/dyn_inst.hh"

namespace mssr
{

/** Outcome of a forwarding search for a load. */
struct ForwardResult
{
    enum class Kind
    {
        None,      //!< no older overlapping store: read memory
        Forward,   //!< full coverage by one store: use @c data
        Stall,     //!< partial overlap or data not ready: retry later
    };
    Kind kind = Kind::None;
    RegVal data = 0;
};

class Lsq
{
  public:
    Lsq(unsigned lq_entries, unsigned sq_entries);

    bool loadQueueFull() const { return loads_.full(); }
    bool storeQueueFull() const { return stores_.full(); }
    std::size_t numLoads() const { return loads_.size(); }
    std::size_t numStores() const { return stores_.size(); }

    /** Dispatch-time insertion (program order). */
    void insertLoad(const DynInstPtr &inst);
    void insertStore(const DynInstPtr &inst);

    /** Records a store's resolved address and data. */
    void storeResolved(const DynInstPtr &inst, Addr addr, unsigned size,
                       RegVal data);

    /**
     * After a store resolves, finds the oldest younger executed load
     * that overlaps it (a memory-order violation), if any.
     */
    DynInstPtr checkViolation(SeqNum store_seq, Addr addr, unsigned size);

    /**
     * Forwarding search for a load at @p addr/@p size against stores
     * older than @p load_seq.
     */
    ForwardResult searchForward(SeqNum load_seq, Addr addr, unsigned size);

    /** Marks a load as executed at @p addr (enables violation checks). */
    void loadExecuted(const DynInstPtr &inst, Addr addr, unsigned size);

    /** Removes entries with seq > @p after_seq. */
    void squashAfter(SeqNum after_seq);

    /** Pops the store-queue head (must match @p inst) at commit. */
    void commitStore(const DynInstPtr &inst);

    /** Pops the load-queue head (must match @p inst) at commit. */
    void commitLoad(const DynInstPtr &inst);

  private:
    struct LoadEntry
    {
        DynInstPtr inst;
        bool executed = false;
        Addr addr = 0;
        unsigned size = 0;
    };

    struct StoreEntry
    {
        DynInstPtr inst;
        bool addrValid = false;
        Addr addr = 0;
        unsigned size = 0;
        RegVal data = 0;
    };

    static bool
    overlap(Addr a, unsigned asz, Addr b, unsigned bsz)
    {
        return a < b + bsz && b < a + asz;
    }

    Ring<LoadEntry> loads_;   //!< program order
    Ring<StoreEntry> stores_; //!< program order
};

} // namespace mssr

#endif // MSSR_CORE_LSQ_HH
