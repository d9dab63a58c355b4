// Plain-text table renderer used for taxonomy summary tables (Tables 1 & 2
// of the paper), call summaries, and benchmark output.
#pragma once

#include <string>
#include <vector>

namespace iotaxo {

enum class Align { kLeft, kRight };

/// A simple monospace table with a header row, per-column alignment and an
/// optional title. Cells are strings; callers format values themselves.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void set_title(std::string title) { title_ = std::move(title); }
  void set_align(std::size_t column, Align align);

  /// Add a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Add a horizontal separator line before the next row.
  void add_separator();

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t column_count() const noexcept {
    return headers_.size();
  }

  /// Render with unicode-free ASCII borders.
  [[nodiscard]] std::string render() const;

  /// Render as Markdown.
  [[nodiscard]] std::string render_markdown() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator_before = false;
  };

  std::string title_;
  std::vector<std::string> headers_;
  std::vector<Align> aligns_;
  std::vector<Row> rows_;
  bool pending_separator_ = false;
};

}  // namespace iotaxo
