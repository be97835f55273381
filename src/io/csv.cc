#include "io/csv.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace mlp {
namespace io {

std::vector<std::string> ParseCsvLine(const std::string& line, char sep) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"' && current.empty()) {
      in_quotes = true;
    } else if (c == sep) {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
    ++i;
  }
  fields.push_back(std::move(current));
  return fields;
}

std::string FormatCsvLine(const std::vector<std::string>& fields, char sep) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back(sep);
    const std::string& f = fields[i];
    bool needs_quotes =
        f.find(sep) != std::string::npos || f.find('"') != std::string::npos ||
        (!f.empty() && (f.front() == ' ' || f.back() == ' '));
    if (needs_quotes) {
      out.push_back('"');
      for (char c : f) {
        if (c == '"') out += "\"\"";
        else out.push_back(c);
      }
      out.push_back('"');
    } else {
      out += f;
    }
  }
  return out;
}

Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path, char sep) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open for reading: " + path);
  }
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    rows.push_back(ParseCsvLine(line, sep));
  }
  return rows;
}

Status WriteCsvFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows,
                    char sep) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  for (const auto& row : rows) {
    out << FormatCsvLine(row, sep) << "\n";
  }
  if (!out.good()) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

std::string PathJoin(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  if (dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

Result<int> ParseIntField(const std::string& field, const char* what) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(field.c_str(), &end, 10);
  if (end == field.c_str() || *end != '\0') {
    return Status::InvalidArgument(std::string("bad ") + what + " field: '" +
                                   field + "'");
  }
  // An out-of-range id must not wrap onto a real one (4294967296 → 0).
  if (errno == ERANGE || value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(std::string(what) + " field out of range: '" +
                                   field + "'");
  }
  return static_cast<int>(value);
}

}  // namespace io
}  // namespace mlp
