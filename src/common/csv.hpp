// Tiny CSV / table output helpers used by benches and trace export.
#pragma once

#include <string>
#include <vector>

namespace mp {

/// Accumulates rows of string cells and renders either CSV or an aligned
/// ASCII table (the format the figure benches print).
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_ascii() const;

  /// Write CSV to a file; returns false on I/O failure.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style float formatting helpers for table cells.
[[nodiscard]] std::string fmt_double(double v, int precision = 3);
[[nodiscard]] std::string fmt_percent(double fraction, int precision = 1);

}  // namespace mp
