#include "stats/stats.hh"

namespace vpir
{

double
harmonicMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double denom = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            return 0.0;
        denom += 1.0 / v;
    }
    return static_cast<double>(values.size()) / denom;
}

double
pct(double num, double den)
{
    return den != 0.0 ? 100.0 * num / den : 0.0;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

} // namespace vpir
