/**
 * @file
 * Emits series data (figure lines) as CSV so bench output can be
 * replotted directly.
 */

#pragma once

#include <string>
#include <vector>

namespace eval {

/**
 * A named set of (x, y) series sharing an x axis, printed as one CSV
 * block: header "x,<name1>,<name2>,..." followed by rows.
 */
class SeriesSet
{
  public:
    SeriesSet(std::string title, std::string xName);

    /** Register a series; returns its index. */
    std::size_t addSeries(const std::string &name);

    /** Append an x sample; subsequent setValue calls fill that row. */
    void addSample(double x);

    /** Set series value for the most recent x sample. */
    void setValue(std::size_t series, double y);

    std::string csv(int precision = 6) const;
    void print(int precision = 6) const;

  private:
    std::string title_;
    std::string xName_;
    std::vector<std::string> names_;
    std::vector<double> xs_;
    std::vector<std::vector<double>> values_;   ///< [series][sample]
};

} // namespace eval
