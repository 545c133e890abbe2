#include "util/csv.hh"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/logging.hh"

namespace eval {

SeriesSet::SeriesSet(std::string title, std::string xName)
    : title_(std::move(title)), xName_(std::move(xName))
{
}

std::size_t
SeriesSet::addSeries(const std::string &name)
{
    names_.push_back(name);
    values_.emplace_back(xs_.size(),
                         std::numeric_limits<double>::quiet_NaN());
    return names_.size() - 1;
}

void
SeriesSet::addSample(double x)
{
    xs_.push_back(x);
    for (auto &v : values_)
        v.push_back(std::numeric_limits<double>::quiet_NaN());
}

void
SeriesSet::setValue(std::size_t series, double y)
{
    EVAL_ASSERT(series < values_.size(), "series index out of range");
    EVAL_ASSERT(!xs_.empty(), "setValue before any addSample");
    values_[series].back() = y;
}

std::string
SeriesSet::csv(int precision) const
{
    std::ostringstream os;
    os << "# " << title_ << "\n" << xName_;
    for (const auto &n : names_)
        os << "," << n;
    os << "\n" << std::setprecision(precision);
    for (std::size_t i = 0; i < xs_.size(); ++i) {
        os << xs_[i];
        for (const auto &v : values_) {
            os << ",";
            if (std::isnan(v[i]))
                os << "";
            else
                os << v[i];
        }
        os << "\n";
    }
    return os.str();
}

void
SeriesSet::print(int precision) const
{
    std::fputs(csv(precision).c_str(), stdout);
}

} // namespace eval
