#include "common/config.hh"

namespace mssr
{

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
