#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/binary_io.h"

namespace ftnav {

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty())
    throw std::invalid_argument("Table: need at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("Table: row width mismatch");
  rows_.push_back(std::move(cells));
}

void Table::add_row(const std::vector<double>& cells, int precision) {
  std::vector<std::string> text;
  text.reserve(cells.size());
  for (double c : cells) text.push_back(format_double(c, precision));
  add_row(std::move(text));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << "  " << row[c]
          << std::string(widths[c] - row[c].size(), ' ');
    }
    out << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string Table::to_csv() const {
  auto quote = [](const std::string& s) {
    if (s.find(',') == std::string::npos &&
        s.find('"') == std::string::npos)
      return s;
    std::string q = "\"";
    for (char ch : s) {
      if (ch == '"') q += '"';
      q += ch;
    }
    q += '"';
    return q;
  };
  std::ostringstream out;
  for (std::size_t c = 0; c < headers_.size(); ++c)
    out << (c ? "," : "") << quote(headers_[c]);
  out << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      out << (c ? "," : "") << quote(row[c]);
    out << '\n';
  }
  return out.str();
}

std::string Table::to_json() const {
  std::ostringstream out;
  out << "{\"headers\":[";
  for (std::size_t c = 0; c < headers_.size(); ++c)
    out << (c ? "," : "") << json_quote(headers_[c]);
  out << "],\"rows\":[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out << (r ? ",[" : "[");
    for (std::size_t c = 0; c < rows_[r].size(); ++c)
      out << (c ? "," : "") << json_quote(rows_[r][c]);
    out << ']';
  }
  out << "]}";
  return out.str();
}

HeatmapGrid::HeatmapGrid(std::vector<std::string> row_labels,
                         std::vector<std::string> col_labels)
    : row_labels_(std::move(row_labels)), col_labels_(std::move(col_labels)) {
  if (row_labels_.empty() || col_labels_.empty())
    throw std::invalid_argument("HeatmapGrid: empty axis");
  values_.assign(row_labels_.size() * col_labels_.size(), 0.0);
  present_.assign(values_.size(), false);
}

std::size_t HeatmapGrid::index(std::size_t row, std::size_t col) const {
  if (row >= rows() || col >= cols())
    throw std::out_of_range("HeatmapGrid: cell out of range");
  return row * cols() + col;
}

void HeatmapGrid::set(std::size_t row, std::size_t col, double value) {
  const auto i = index(row, col);
  values_[i] = value;
  present_[i] = true;
}

bool HeatmapGrid::has(std::size_t row, std::size_t col) const {
  return present_[index(row, col)];
}

void HeatmapGrid::merge(const HeatmapGrid& other) {
  if (row_labels_ != other.row_labels_ || col_labels_ != other.col_labels_)
    throw std::invalid_argument("HeatmapGrid::merge: axis mismatch");
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (!other.present_[i]) continue;
    values_[i] = other.values_[i];
    present_[i] = true;
  }
}

double HeatmapGrid::at(std::size_t row, std::size_t col) const {
  const auto i = index(row, col);
  if (!present_[i]) throw std::out_of_range("HeatmapGrid: cell not set");
  return values_[i];
}

std::string HeatmapGrid::render(int precision) const {
  Table table([&] {
    std::vector<std::string> headers{""};
    headers.insert(headers.end(), col_labels_.begin(), col_labels_.end());
    return headers;
  }());
  for (std::size_t r = 0; r < rows(); ++r) {
    std::vector<std::string> row{row_labels_[r]};
    for (std::size_t c = 0; c < cols(); ++c) {
      row.push_back(present_[r * cols() + c]
                        ? format_double(values_[r * cols() + c], precision)
                        : std::string("-"));
    }
    table.add_row(std::move(row));
  }
  return table.render();
}

std::string HeatmapGrid::to_csv(int precision) const {
  std::ostringstream out;
  out << "row";
  for (const auto& c : col_labels_) out << ',' << c;
  out << '\n';
  for (std::size_t r = 0; r < rows(); ++r) {
    out << row_labels_[r];
    for (std::size_t c = 0; c < cols(); ++c) {
      out << ',';
      if (present_[r * cols() + c])
        out << format_double(values_[r * cols() + c], precision);
    }
    out << '\n';
  }
  return out.str();
}

std::string HeatmapGrid::to_json(int precision) const {
  std::ostringstream out;
  out << "{\"rows\":[";
  for (std::size_t r = 0; r < rows(); ++r)
    out << (r ? "," : "") << json_quote(row_labels_[r]);
  out << "],\"cols\":[";
  for (std::size_t c = 0; c < cols(); ++c)
    out << (c ? "," : "") << json_quote(col_labels_[c]);
  out << "],\"cells\":[";
  for (std::size_t r = 0; r < rows(); ++r) {
    out << (r ? ",[" : "[");
    for (std::size_t c = 0; c < cols(); ++c) {
      out << (c ? "," : "");
      if (present_[r * cols() + c])
        out << format_double(values_[r * cols() + c], precision);
      else
        out << "null";
    }
    out << ']';
  }
  out << "]}";
  return out.str();
}

void HeatmapGrid::save_state(std::ostream& out) const {
  io::write_u64(out, row_labels_.size());
  for (const std::string& label : row_labels_) io::write_string(out, label);
  io::write_u64(out, col_labels_.size());
  for (const std::string& label : col_labels_) io::write_string(out, label);
  for (double value : values_) io::write_f64(out, value);
  // vector<bool> packs bits; expand to bytes for the stream.
  std::vector<std::uint8_t> present(present_.size());
  for (std::size_t i = 0; i < present_.size(); ++i)
    present[i] = present_[i] ? 1 : 0;
  io::write_vector(out, present);
}

void HeatmapGrid::restore_state(std::istream& in) {
  const auto read_labels = [&in] {
    const std::uint64_t count = io::read_u64(in);
    std::vector<std::string> labels;
    labels.reserve(io::reservable(in, count, 8));
    for (std::uint64_t i = 0; i < count; ++i)
      labels.push_back(io::read_string(in));
    return labels;
  };
  const std::vector<std::string> rows_in = read_labels();
  const std::vector<std::string> cols_in = read_labels();
  if (rows_in != row_labels_ || cols_in != col_labels_)
    throw std::runtime_error("HeatmapGrid::restore_state: axis mismatch");
  for (double& value : values_) value = io::read_f64(in);
  const auto present = io::read_vector<std::uint8_t>(in);
  if (present.size() != present_.size())
    throw std::runtime_error("HeatmapGrid::restore_state: size mismatch");
  for (std::size_t i = 0; i < present.size(); ++i)
    present_[i] = present[i] != 0;
}

}  // namespace ftnav
