#include "util/table.hh"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>

namespace eval {

std::string
formatDouble(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string
formatPercent(double fraction, int precision)
{
    return formatDouble(fraction * 100.0, precision) + "%";
}

TablePrinter::TablePrinter(std::string title)
    : title_(std::move(title))
{
}

void
TablePrinter::header(std::vector<std::string> names)
{
    header_ = std::move(names);
}

void
TablePrinter::row(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
TablePrinter::rowValues(const std::string &label,
                        const std::vector<double> &values, int precision)
{
    std::vector<std::string> cells;
    cells.reserve(values.size() + 1);
    cells.push_back(label);
    for (double v : values)
        cells.push_back(formatDouble(v, precision));
    row(std::move(cells));
}

std::string
TablePrinter::str() const
{
    // Compute column widths.
    std::vector<std::size_t> widths;
    auto grow = [&widths](const std::vector<std::string> &cells) {
        if (cells.size() > widths.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    grow(header_);
    for (const auto &r : rows_)
        grow(r);

    auto renderRow = [&widths](std::ostringstream &os,
                               const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < widths.size(); ++i) {
            const std::string &cell = i < cells.size() ? cells[i] : "";
            os << (i == 0 ? "| " : " | ") << std::left
               << std::setw(static_cast<int>(widths[i])) << cell;
        }
        os << " |\n";
    };

    std::size_t total = 1;
    for (std::size_t w : widths)
        total += w + 3;

    std::ostringstream os;
    os << "== " << title_ << " ==\n";
    const std::string rule(total, '-');
    if (!header_.empty()) {
        os << rule << "\n";
        renderRow(os, header_);
    }
    os << rule << "\n";
    for (const auto &r : rows_)
        renderRow(os, r);
    os << rule << "\n";
    return os.str();
}

std::string
TablePrinter::csv() const
{
    std::ostringstream os;
    os << "# " << title_ << "\n";
    auto emit = [&os](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            os << (i ? "," : "") << cells[i];
        os << "\n";
    };
    if (!header_.empty())
        emit(header_);
    for (const auto &r : rows_)
        emit(r);
    return os.str();
}

void
TablePrinter::print() const
{
    std::fputs(str().c_str(), stdout);
}

} // namespace eval
