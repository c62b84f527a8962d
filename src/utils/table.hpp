// Text-table and CSV emitters for the bench harnesses.
//
// Each bench binary reproduces one table or figure from the paper; these
// helpers render aligned ASCII tables on stdout (for humans) and can dump
// the same rows as CSV (for plotting).
#pragma once

#include <string>
#include <vector>

namespace fedclust {

/// Row-oriented table with fixed columns. Cells are strings; numeric
/// convenience overloads format with a fixed precision.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Starts a new row; subsequent add() calls fill it left to right.
  TextTable& new_row();
  TextTable& add(const std::string& cell);
  TextTable& add(double value, int precision = 2);
  TextTable& add(long long value);

  /// Renders the table with a header rule, e.g.
  ///   Method    | CIFAR-10 | FMNIST
  ///   ----------+----------+-------
  ///   FedAvg    | 38.25    | 81.93
  std::string to_string() const;

  /// Same rows as comma-separated values (headers first).
  std::string to_csv() const;

  /// Writes to_csv() to `path`, creating/truncating the file.
  void write_csv(const std::string& path) const;

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats "mean ± std" the way the paper's Table I does.
std::string format_mean_std(double mean, double std, int precision = 2);

}  // namespace fedclust
