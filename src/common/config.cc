#include "common/config.hh"

#include <algorithm>

namespace mssr
{

void
ReuseConfig::setLogEntries(unsigned log_entries)
{
    squashLogEntriesPerStream = log_entries;
    wpbEntriesPerStream = std::max(1u, log_entries / 4);
}

std::string
toString(ReuseKind kind)
{
    switch (kind) {
      case ReuseKind::None:
        return "none";
      case ReuseKind::Rgid:
        return "rgid";
      case ReuseKind::RegInt:
        return "regint";
    }
    return "?";
}

std::string
toString(BranchPredictorKind kind)
{
    switch (kind) {
      case BranchPredictorKind::Bimodal:
        return "bimodal";
      case BranchPredictorKind::Gshare:
        return "gshare";
      case BranchPredictorKind::TageScL:
        return "tage-sc-l";
    }
    return "?";
}

} // namespace mssr
