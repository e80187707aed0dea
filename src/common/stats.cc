#include "common/stats.hh"

#include <iomanip>

namespace mssr
{

void
StatSet::set(const std::string &name, double value)
{
    scalars_[name] = value;
}

double
StatSet::get(const std::string &name, double dflt) const
{
    auto it = scalars_.find(name);
    return it == scalars_.end() ? dflt : it->second;
}

bool
StatSet::has(const std::string &name) const
{
    return scalars_.count(name) != 0;
}

void
StatSet::dump(std::ostream &os) const
{
    for (const auto &[name, value] : scalars_)
        os << std::left << std::setw(44) << name << " "
           << std::setprecision(12) << value << "\n";
}

} // namespace mssr
