#include "harness/stats.h"

#include <algorithm>

namespace dpr {

ResultTable::ResultTable(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void ResultTable::AddRow(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
}

std::string ResultTable::Fmt(double v, int precision) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void ResultTable::Print() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) widths[i] = columns_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < columns_.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string();
      printf("%-*s  ", static_cast<int>(widths[i]), cell.c_str());
    }
    printf("\n");
  };
  print_row(columns_);
  std::string sep;
  for (size_t i = 0; i < columns_.size(); ++i) {
    sep.assign(widths[i], '-');
    printf("%s  ", sep.c_str());
  }
  printf("\n");
  for (const auto& row : rows_) print_row(row);
  fflush(stdout);
}

}  // namespace dpr
