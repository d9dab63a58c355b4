#include "util/table.h"

#include <algorithm>

#include "util/error.h"

namespace iotaxo {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)), aligns_(headers_.size(), Align::kLeft) {
  if (headers_.empty()) {
    throw ConfigError("TextTable needs at least one column");
  }
}

void TextTable::set_align(std::size_t column, Align align) {
  if (column >= aligns_.size()) {
    throw ConfigError("TextTable::set_align: column out of range");
  }
  aligns_[column] = align;
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw ConfigError("TextTable::add_row: wrong cell count");
  }
  rows_.push_back(Row{std::move(cells), pending_separator_});
  pending_separator_ = false;
}

void TextTable::add_separator() { pending_separator_ = true; }

namespace {

std::string pad(const std::string& s, std::size_t width, Align align) {
  if (s.size() >= width) {
    return s;
  }
  const std::string fill(width - s.size(), ' ');
  return align == Align::kLeft ? s + fill : fill + s;
}

}  // namespace

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const Row& row : rows_) {
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      widths[c] = std::max(widths[c], row.cells[c].size());
    }
  }

  auto rule = [&]() {
    std::string line = "+";
    for (const std::size_t w : widths) {
      line += std::string(w + 2, '-');
      line += "+";
    }
    line += "\n";
    return line;
  };
  auto emit_row = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      line += ' ';
      line += pad(cells[c], widths[c], aligns_[c]);
      line += " |";
    }
    line += "\n";
    return line;
  };

  std::string out;
  if (!title_.empty()) {
    out += title_ + "\n";
  }
  out += rule();
  out += emit_row(headers_);
  out += rule();
  for (const Row& row : rows_) {
    if (row.separator_before) {
      out += rule();
    }
    out += emit_row(row.cells);
  }
  out += rule();
  return out;
}

std::string TextTable::render_markdown() const {
  std::string out;
  if (!title_.empty()) {
    out += "**" + title_ + "**\n\n";
  }
  out += "|";
  for (const std::string& h : headers_) {
    out += " " + h + " |";
  }
  out += "\n|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out += aligns_[c] == Align::kRight ? " ---: |" : " --- |";
  }
  out += "\n";
  for (const Row& row : rows_) {
    out += "|";
    for (const std::string& cell : row.cells) {
      out += " " + cell + " |";
    }
    out += "\n";
  }
  return out;
}

}  // namespace iotaxo
