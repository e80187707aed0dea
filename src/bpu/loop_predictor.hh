/**
 * @file
 * Loop predictor (the "L" of TAGE-SC-L): learns fixed trip counts of
 * loop-closing branches and predicts the exit iteration exactly.
 *
 * Architectural trip/confidence state is trained at commit; a
 * speculative per-entry iteration counter follows predictions and is
 * resynchronised to the architectural counter at commit and on
 * redirect, which bounds wrong-path corruption to the in-flight window.
 */

#ifndef MSSR_BPU_LOOP_PREDICTOR_HH
#define MSSR_BPU_LOOP_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mssr
{

class LoopPredictor
{
  public:
    /**
     * @param min_trip shortest trip count worth overriding for: short
     *        loops are period-N patterns that TAGE already captures,
     *        and overriding them couples prediction accuracy to the
     *        speculative-counter resync heuristic (see squash()).
     */
    explicit LoopPredictor(unsigned entries = 128,
                           unsigned conf_threshold = 3,
                           unsigned min_trip = 24);

    /** Result of a loop lookup. */
    struct Prediction
    {
        bool valid = false;   //!< confident loop entry found
        bool taken = false;   //!< predicted direction
    };

    /** Predicts using speculative iteration state. */
    Prediction predict(Addr pc) const;

    /** Advances speculative iteration state after a prediction. */
    void specUpdate(Addr pc, bool taken);

    /** Resyncs all speculative counters to architectural state. */
    void squash();

    /** Trains architectural state with a retired outcome. */
    void commitUpdate(Addr pc, bool taken);

  private:
    struct Entry
    {
        bool valid = false;
        std::uint32_t tag = 0;
        std::uint16_t tripCount = 0; //!< learned iterations until exit
        std::uint16_t archIter = 0;  //!< committed iteration counter
        std::uint16_t specIter = 0;  //!< speculative iteration counter
        std::uint8_t conf = 0;
    };

    std::size_t index(Addr pc) const;
    std::uint32_t tagOf(Addr pc) const;

    std::vector<Entry> entries_;
    unsigned indexBits_;  //!< log2 of entries_.size()
    unsigned confThreshold_;
    unsigned minTrip_;
};

} // namespace mssr

#endif // MSSR_BPU_LOOP_PREDICTOR_HH
