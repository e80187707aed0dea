/**
 * @file
 * Fetch Target Queue (paper section 3.3.1): holds prediction blocks
 * produced by the BPU pipeline until fetch consumes them and until
 * their branches retire or squash. The Wrong-Path Buffers are filled
 * from the ROB's squashed instructions (ReuseUnit::onBranchSquash),
 * not from the FTQ.
 *
 * The queue is a ring of capacity blocks allocated at construction:
 * the BPU forms each block in its tail slot (allocate()), so a block
 * is never copied on its way in.
 */

#ifndef MSSR_FRONTEND_FTQ_HH
#define MSSR_FRONTEND_FTQ_HH

#include "common/ring.hh"
#include "frontend/pred_block.hh"

namespace mssr
{

class Ftq
{
  public:
    explicit Ftq(unsigned capacity);

    bool full() const { return entries_.full(); }
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    /**
     * Enqueues a slot for a new prediction block and returns the block,
     * which still holds whatever the slot last held: the caller forms
     * every field in place (BpuPipeline::formBlock).
     */
    PredBlock &allocate();

    /** Enqueues a copy of @p block. */
    void push(const PredBlock &block) { allocate() = block; }

    /** Oldest block not yet fully fetched, or nullptr. */
    const PredBlock *fetchHead() const;

    /** Current fetch offset (in instructions) within fetchHead(). */
    unsigned fetchOffset() const { return fetchOffset_; }

    /** Advances the fetch cursor by @p n instructions within the head. */
    void advanceFetch(unsigned n);

    /**
     * Squashes all blocks strictly younger than @p block_id, plus the
     * tail of block @p block_id after @p keep_pc (exclusive).
     *
     * @param block_id FTQ id of the block containing the redirecting
     *        instruction.
     * @param keep_pc PC of the redirecting instruction (last kept).
     *        When block @p block_id has already retired, every queued
     *        block is squashed.
     */
    void squashAfter(std::uint64_t block_id, Addr keep_pc);

    /** Deallocates retired blocks older than @p block_id. */
    void retireUpTo(std::uint64_t block_id);

  private:
    struct Entry
    {
        PredBlock block;
        unsigned fetched = 0;   //!< instructions delivered to fetch
    };

    Ring<Entry> entries_;
    std::size_t fetchIdx_ = 0;  //!< index of the block being fetched
    unsigned fetchOffset_ = 0;
};

} // namespace mssr

#endif // MSSR_FRONTEND_FTQ_HH
