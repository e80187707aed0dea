/**
 * @file
 * Reconvergence detection (paper section 3.4): detects the first
 * basic-block overlap between the currently fetched prediction block
 * and the blocks of the squashed streams in the Wrong-Path Buffers.
 *
 * The hardware evaluates, fully associatively over all WPB entries,
 *
 *     start_pc_head <= end_pc_wpb  &&  end_pc_head >= start_pc_wpb
 *
 * via "left aligner" and "right aligner" comparator banks producing
 * two bit-masks that are ANDed and priority-encoded; the reconvergence
 * PC is max(start_pc_head, start_pc_wpb). The model computes the
 * priority encoder's answer with a scan of the filled prefix that stops
 * at the first overlapping entry, for any buffer size; the complexity
 * model (analysis/complexity_model) estimates the comparator and
 * encoder trees analytically.
 */

#ifndef MSSR_REUSE_RECONV_DETECTOR_HH
#define MSSR_REUSE_RECONV_DETECTOR_HH

#include "reuse/wpb.hh"

namespace mssr
{

/** Result of matching one prediction block against one WPB stream. */
struct ReconvHit
{
    bool found = false;
    unsigned entryIdx = 0;   //!< first overlapping WPB entry
    Addr reconvPC = 0;       //!< exact reconvergence point
    unsigned instOffset = 0; //!< offset from the start of the stream,
                             //!< in instructions
};

class ReconvDetector
{
  public:
    /**
     * Full per-stream check: VPN compare (when restricted), the first
     * entry both aligners accept, exact-PC computation and conversion
     * to an instruction offset from the start of the stream.
     */
    static ReconvHit match(const WpbStream &stream, Addr head_start,
                           Addr head_end, bool restrict_vpn);
};

} // namespace mssr

#endif // MSSR_REUSE_RECONV_DETECTOR_HH
