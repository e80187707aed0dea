#include "driver/job_spec.hh"

#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/argparse.hh"
#include "common/bitops.hh"
#include "common/frame.hh"
#include "workloads/graph.hh"

namespace mssr
{

namespace
{

using minijson::JsonValue;
using S = ServeJobSpec;

/**
 * The job keys, in canonical order. Columns: JSON key, mssr_run flag,
 * member, allowed strings, smallest flag value, largest value, power
 * of two (JobKey has the rules).
 */
const JobKey Keys[] = {
    {"name", nullptr, &S::name},
    {"workload", nullptr, &S::workload},
    {"scheme", "--reuse", &S::scheme, "none|rgid|regint"},
    {"predictor", "--predictor", &S::predictor, "tage|gshare|bimodal"},
    {"func_tier", nullptr, &S::funcTier, "fast|interp"},
    {"scale", "--scale", &S::scale, nullptr, 1, workloads::MaxGraphScale},
    {"iters", "--iters", &S::iters, nullptr, 1},
    {"seed", nullptr, &S::seed},
    {"streams", "--streams", &S::streams, nullptr, 1},
    {"entries", "--entries", &S::entries, nullptr, 1},
    {"sets", "--sets", &S::sets, nullptr, 1, 0, true},
    {"ways", "--ways", &S::ways, nullptr, 1},
    {"bloom", "--bloom", &S::bloom},
    {"warm_bpu", "--warm-bpu", &S::warmBpu},
    {"max_insts", "--max-insts", &S::maxInsts},
    {"fast_forward", "--fast-forward", &S::fastForward, nullptr, 1},
    {"sample_period", "--sample-period", &S::samplePeriod, nullptr, 1},
    {"sample_window", "--sample-window", &S::sampleWindow, nullptr, 1},
};

/** The key spelled @p text in column @p spelling, or nullptr. */
const JobKey *
findKey(const char *JobKey::*spelling, const std::string &text)
{
    for (const JobKey &k : Keys)
        if (k.*spelling && text == k.*spelling)
            return &k;
    return nullptr;
}

bool
isChoice(const JobKey &key, const std::string &v)
{
    return !key.choices || ("|" + std::string(key.choices) + "|")
                                   .find("|" + v + "|") != std::string::npos;
}

/** "" when the nonzero value @p v clears @p key's max and power-of-two
 *  columns, else why not. */
std::string
limitError(const JobKey &key, std::uint64_t v)
{
    if (key.max != 0 && v > key.max)
        return "must be <= " + std::to_string(key.max);
    if (key.pow2 && !isPow2(v))
        return "must be a power of two";
    return "";
}

} // namespace

std::span<const JobKey>
jobKeys()
{
    return Keys;
}

bool
parseJobFlag(ServeJobSpec &s, const std::string &flag,
             const std::function<std::string()> &next)
{
    const JobKey *key = findKey(&JobKey::flag, flag);
    if (!key)
        return false;
    std::visit(
        [&](auto member) {
            using T = std::decay_t<decltype(s.*member)>;
            if constexpr (std::is_same_v<T, bool>) {
                s.*member = true;
            } else {
                const std::string value = next();
                std::string why;
                if constexpr (std::is_same_v<T, std::string>) {
                    if (isChoice(*key, value))
                        s.*member = value;
                    else
                        why = std::string("want ") + key->choices;
                } else {
                    const auto v = parseFlagU64(
                        value, key->flagMin, std::numeric_limits<T>::max(),
                        why);
                    if (v && *v)
                        why = limitError(*key, *v);
                    if (why.empty())
                        s.*member = static_cast<T>(*v);
                }
                if (!why.empty())
                    throw std::invalid_argument("invalid value '" + value +
                                                "' for " + flag + " (" +
                                                why + ")");
            }
        },
        key->member);
    return true;
}

std::uint64_t
jsonU64(const std::string &key, const JsonValue &v)
{
    // The range check comes first: casting a double outside uint64_t's
    // range is undefined behaviour.
    if (v.kind != JsonValue::Number || v.number < 0 ||
        v.number > 9007199254740992.0 ||
        v.number != static_cast<double>(
                        static_cast<std::uint64_t>(v.number)))
        throw std::invalid_argument("field '" + key +
                                    "' must be a non-negative integer");
    return static_cast<std::uint64_t>(v.number);
}

ServeJobSpec
parseJobSpec(const JsonValue &v)
{
    if (v.kind != JsonValue::Object)
        throw std::invalid_argument("job spec must be a JSON object");
    ServeJobSpec s;
    for (const auto &[name, val] : v.object) {
        const JobKey *key = findKey(&JobKey::json, name);
        if (!key)
            throw std::invalid_argument("unknown job-spec key '" + name +
                                        "'");
        const auto bad = [&](const std::string &why) {
            return std::invalid_argument("field '" + name + "' " + why);
        };
        std::visit(
            [&](auto member) {
                using T = std::decay_t<decltype(s.*member)>;
                if constexpr (std::is_same_v<T, bool>) {
                    if (val.kind != JsonValue::Bool)
                        throw bad("must be a boolean");
                    s.*member = val.number != 0.0;
                } else if constexpr (std::is_same_v<T, std::string>) {
                    if (val.kind != JsonValue::String)
                        throw bad("must be a string");
                    if (!isChoice(*key, val.string))
                        throw std::invalid_argument(name + " '" +
                                                    val.string +
                                                    "' is not " +
                                                    key->choices);
                    s.*member = val.string;
                } else {
                    const std::uint64_t n = jsonU64(name, val);
                    if (!std::in_range<T>(n))
                        throw bad("is out of range");
                    if (const std::string why = n ? limitError(*key, n) : "";
                        !why.empty())
                        throw bad(why);
                    s.*member = static_cast<T>(n);
                }
            },
            key->member);
    }
    if (s.workload.empty())
        throw std::invalid_argument("job spec needs a 'workload'");
    if (s.name.empty())
        s.name = s.workload;
    for (const char c : s.name)
        if (static_cast<unsigned char>(c) < 0x20)
            throw std::invalid_argument(
                "job names must not contain control characters");
    return s;
}

std::string
canonicalJobSpec(const ServeJobSpec &s)
{
    std::ostringstream os;
    const char *sep = "{";
    for (const JobKey &key : Keys) {
        os << sep << "\"" << key.json << "\": ";
        sep = ", ";
        std::visit(
            [&](auto member) {
                using T = std::decay_t<decltype(s.*member)>;
                if constexpr (std::is_same_v<T, bool>)
                    os << (s.*member ? "true" : "false");
                else if constexpr (std::is_same_v<T, std::string>)
                    os << "\"" << jsonEscape(s.*member) << "\"";
                else
                    os << s.*member;
            },
            key.member);
    }
    os << "}";
    return os.str();
}

ServeJobSpec
baselineJobSpec(ServeJobSpec s)
{
    s.scheme = "none";
    s.streams = s.entries = s.sets = s.ways = 0;
    s.bloom = false;
    return s;
}

SimConfig
specConfig(const ServeJobSpec &s)
{
    SimConfig cfg;
    cfg.reuseKind = s.scheme == "none"
                        ? ReuseKind::None
                        : s.scheme == "rgid" ? ReuseKind::Rgid
                                             : ReuseKind::RegInt;
    cfg.core.predictor = s.predictor == "tage"
                             ? BranchPredictorKind::TageScL
                             : s.predictor == "gshare"
                                   ? BranchPredictorKind::Gshare
                                   : BranchPredictorKind::Bimodal;
    cfg.funcTier =
        s.funcTier == "fast" ? FuncTier::Fast : FuncTier::Interpreter;
    if (s.streams)
        cfg.reuse.numStreams = s.streams;
    if (s.entries)
        cfg.reuse.setLogEntries(s.entries);
    if (s.sets)
        cfg.regint.sets = s.sets;
    if (s.ways)
        cfg.regint.ways = s.ways;
    cfg.reuse.useBloomFilter = s.bloom;
    cfg.warmBpu = s.warmBpu;
    cfg.maxInsts = s.maxInsts;
    cfg.fastForwardInsts = s.fastForward;
    cfg.samplePeriod = s.samplePeriod;
    cfg.sampleWindow = s.sampleWindow;
    return cfg;
}

workloads::WorkloadScale
specScale(const ServeJobSpec &s)
{
    workloads::WorkloadScale sc; // registry defaults, not fromEnv()
    if (s.scale)
        sc.graphScale = s.scale;
    if (s.iters)
        sc.iterations = s.iters;
    sc.seed = s.seed;
    return sc;
}

std::string
validateJobSpec(const ServeJobSpec &s)
{
    if (!workloads::isWorkload(s.workload))
        return "unknown workload '" + s.workload + "'";
    if (s.samplePeriod != 0 || s.sampleWindow != 0) {
        if (s.warmBpu)
            return "sampled windows always warm the predictor from the "
                   "scan; drop warm_bpu";
        // The sampled-mode exclusion matrix, verbatim: a dummy program
        // stands in so the program-presence check passes -- the real
        // program is built only after the batch is accepted.
        static const isa::Program placeholder;
        return sampledJobError({s.name, &placeholder, specConfig(s), {}});
    }
    if (s.warmBpu && s.fastForward == 0)
        return "warm_bpu requires fast_forward";
    return "";
}

} // namespace mssr
