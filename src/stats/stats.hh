/**
 * @file
 * Summary helpers the harnesses derive their table columns with:
 * means over a series and guarded percentages and ratios. The raw
 * counters live in CoreStats (core/core_stats.hh).
 */

#ifndef VPIR_STATS_STATS_HH
#define VPIR_STATS_STATS_HH

#include <vector>

namespace vpir
{

/** Harmonic mean of a series of positive values (paper's HM bars). */
double harmonicMean(const std::vector<double> &values);

/** Percentage helper: 100 * num / den, 0 when den == 0. */
double pct(double num, double den);

/** Ratio helper: num / den, 0 when den == 0. */
double ratio(double num, double den);

} // namespace vpir

#endif // VPIR_STATS_STATS_HH
