#include "common/cpi_stack.hh"

#include <ostream>

#include "common/log.hh"
#include "common/mini_json.hh"

namespace mssr
{

const char *
cpiCatKey(CpiCat cat)
{
    switch (cat) {
      case CpiCat::Base:
        return "base";
      case CpiCat::ReuseSalvaged:
        return "reuse_salvaged";
      case CpiCat::FrontendStarved:
        return "frontend_starved";
      case CpiCat::BranchRecovery:
        return "branch_recovery";
      case CpiCat::FlushRecovery:
        return "flush_recovery";
      case CpiCat::FreeListStall:
        return "freelist_stall";
      case CpiCat::Backpressure:
        return "backpressure";
    }
    return "?";
}

const char *
toString(CpiCat cat)
{
    switch (cat) {
      case CpiCat::Base:
        return "base (useful dispatch)";
      case CpiCat::ReuseSalvaged:
        return "reuse-salvaged dispatch";
      case CpiCat::FrontendStarved:
        return "frontend starved";
      case CpiCat::BranchRecovery:
        return "branch-mispredict recovery";
      case CpiCat::FlushRecovery:
        return "mem-order/verify flush recovery";
      case CpiCat::FreeListStall:
        return "free-list / rename stall";
      case CpiCat::Backpressure:
        return "IQ/ROB/LSQ backpressure";
    }
    return "?";
}

std::uint64_t
CpiStack::total() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t s : slots)
        sum += s;
    return sum;
}

double
CpiStack::cpiContribution(CpiCat cat, std::uint64_t insts,
                          unsigned width) const
{
    if (insts == 0 || width == 0)
        return 0.0;
    return static_cast<double>((*this)[cat]) /
           (static_cast<double>(insts) * static_cast<double>(width));
}

double
CpiStack::fraction(CpiCat cat) const
{
    const std::uint64_t sum = total();
    return sum == 0 ? 0.0
                    : static_cast<double>((*this)[cat]) /
                          static_cast<double>(sum);
}

CpiStack &
CpiStack::operator+=(const CpiStack &other)
{
    for (std::size_t i = 0; i < NumCpiCats; ++i)
        slots[i] += other.slots[i];
    return *this;
}

namespace
{

/** The funnel's stages in order: record key and counter. */
const struct
{
    const char *key;
    std::uint64_t ReuseFunnel::*count;
} Stages[ReuseFunnel::NumStages] = {
    {"squashed", &ReuseFunnel::squashed},
    {"logged", &ReuseFunnel::logged},
    {"covered", &ReuseFunnel::covered},
    {"tested", &ReuseFunnel::tested},
    {"rgid_pass", &ReuseFunnel::rgidPass},
    {"hazard_pass", &ReuseFunnel::hazardPass},
    {"reused", &ReuseFunnel::reused},
};

} // namespace

std::uint64_t
ReuseFunnel::stage(std::size_t i) const
{
    mssr_assert(i < NumStages, "funnel stage index out of range");
    return this->*Stages[i].count;
}

const char *
ReuseFunnel::stageKey(std::size_t i)
{
    mssr_assert(i < NumStages);
    return Stages[i].key;
}

bool
ReuseFunnel::monotonic() const
{
    for (std::size_t i = 1; i < NumStages; ++i)
        if (stage(i) > stage(i - 1))
            return false;
    return true;
}

bool
ReuseFunnel::derivePasses()
{
    const std::uint64_t rgidKills =
        killKind + killNotExecuted + killRgid + killRgidCapacity;
    if (rgidKills > tested || killBloom > tested - rgidKills)
        return false;
    rgidPass = tested - rgidKills;
    hazardPass = rgidPass - killBloom;
    return true;
}

ReuseFunnel &
ReuseFunnel::operator+=(const ReuseFunnel &other)
{
    squashed += other.squashed;
    logged += other.logged;
    covered += other.covered;
    tested += other.tested;
    rgidPass += other.rgidPass;
    hazardPass += other.hazardPass;
    reused += other.reused;
    killKind += other.killKind;
    killNotExecuted += other.killNotExecuted;
    killRgid += other.killRgid;
    killRgidCapacity += other.killRgidCapacity;
    killBloom += other.killBloom;
    verifyOk += other.verifyOk;
    verifyFail += other.verifyFail;
    return *this;
}

void
writeJson(std::ostream &os, const CpiStack &stack)
{
    os << "{";
    for (std::size_t i = 0; i < NumCpiCats; ++i) {
        os << (i ? ", " : "") << "\"" << cpiCatKey(static_cast<CpiCat>(i))
           << "\": " << stack.slots[i];
    }
    os << "}";
}

void
writeJson(std::ostream &os, const ReuseFunnel &funnel)
{
    os << "{\"stages\": {";
    for (std::size_t i = 0; i < ReuseFunnel::NumStages; ++i) {
        os << (i ? ", " : "") << "\"" << ReuseFunnel::stageKey(i)
           << "\": " << funnel.stage(i);
    }
    os << "}, \"kills\": {\"kind\": " << funnel.killKind
       << ", \"not_executed\": " << funnel.killNotExecuted
       << ", \"rgid\": " << funnel.killRgid
       << ", \"rgid_capacity\": " << funnel.killRgidCapacity
       << ", \"bloom\": " << funnel.killBloom
       << "}, \"verify_ok\": " << funnel.verifyOk
       << ", \"verify_fail\": " << funnel.verifyFail << "}";
}

CpiStack
readCpiStack(const minijson::JsonValue &v, std::uint64_t cycles,
             unsigned width)
{
    CpiStack out;
    for (std::size_t i = 0; i < NumCpiCats; ++i)
        out.slots[i] =
            minijson::u64Field(v, cpiCatKey(static_cast<CpiCat>(i)));
    if (out.total() != cycles * width)
        throw minijson::FormatError(
            "CPI slots do not sum to cycles x width");
    return out;
}

ReuseFunnel
readFunnel(const minijson::JsonValue &v)
{
    using minijson::JsonValue;
    using minijson::u64Field;
    ReuseFunnel out;
    const JsonValue &stages = minijson::field(v, "stages", JsonValue::Object);
    for (const auto &[key, count] : Stages)
        out.*count = u64Field(stages, key);
    const JsonValue &kills = minijson::field(v, "kills", JsonValue::Object);
    out.killKind = u64Field(kills, "kind");
    out.killNotExecuted = u64Field(kills, "not_executed");
    out.killRgid = u64Field(kills, "rgid");
    out.killRgidCapacity = u64Field(kills, "rgid_capacity");
    out.killBloom = u64Field(kills, "bloom");
    out.verifyOk = u64Field(v, "verify_ok");
    out.verifyFail = u64Field(v, "verify_fail");
    if (!out.monotonic())
        throw minijson::FormatError("funnel stages not monotonic");
    return out;
}

} // namespace mssr
