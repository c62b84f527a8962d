#include "utils/table.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "utils/error.hpp"

namespace fedclust {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  FEDCLUST_REQUIRE(!headers_.empty(), "table needs at least one column");
}

TextTable& TextTable::new_row() {
  rows_.emplace_back();
  return *this;
}

TextTable& TextTable::add(const std::string& cell) {
  FEDCLUST_REQUIRE(!rows_.empty(), "call new_row() before add()");
  FEDCLUST_REQUIRE(rows_.back().size() < headers_.size(),
                   "row already has " << headers_.size() << " cells");
  rows_.back().push_back(cell);
  return *this;
}

TextTable& TextTable::add(double value, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << value;
  return add(oss.str());
}

TextTable& TextTable::add(long long value) {
  return add(std::to_string(value));
}

namespace {

/// Display width of a UTF-8 cell in code points: every byte except the
/// 10xxxxxx continuation bytes starts one, so "±" and "—" count once.
std::size_t code_points(const std::string& s) {
  std::size_t n = 0;
  for (const char ch : s) {
    if ((static_cast<unsigned char>(ch) & 0xC0) != 0x80) ++n;
  }
  return n;
}

}  // namespace

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = code_points(headers_[c]);
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], code_points(row[c]));
    }
  }
  std::ostringstream oss;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      oss << (c == 0 ? "" : " | ") << cell
          << std::string(widths[c] - code_points(cell), ' ');
    }
    oss << '\n';
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    oss << (c == 0 ? "" : "-+-") << std::string(widths[c], '-');
  }
  oss << '\n';
  for (const auto& row : rows_) emit_row(row);
  return oss.str();
}

std::string TextTable::to_csv() const {
  auto escape = [](const std::string& s) {
    // RFC 4180: quote any cell carrying a separator, quote, or EITHER
    // line-break character — a bare \r splits the row in most readers.
    if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"') out += '"';
      out += ch;
    }
    out += '"';
    return out;
  };
  std::ostringstream oss;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    oss << (c == 0 ? "" : ",") << escape(headers_[c]);
  }
  oss << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      oss << (c == 0 ? "" : ",") << escape(row[c]);
    }
    oss << '\n';
  }
  return oss.str();
}

void TextTable::write_csv(const std::string& path) const {
  std::ofstream out(path);
  FEDCLUST_CHECK(out.good(), "cannot open " << path << " for writing");
  out << to_csv();
}

std::string format_mean_std(double mean, double std, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << mean << " ± " << std;
  return oss.str();
}

}  // namespace fedclust
