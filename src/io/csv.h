#ifndef MLP_IO_CSV_H_
#define MLP_IO_CSV_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace mlp {
namespace io {

/// Parses one CSV line. Supports double-quoted fields with embedded commas
/// and doubled-quote escapes; no embedded newlines.
std::vector<std::string> ParseCsvLine(const std::string& line, char sep = ',');

/// Serializes one row, quoting fields that contain the separator, quotes,
/// or leading/trailing whitespace.
std::string FormatCsvLine(const std::vector<std::string>& fields,
                          char sep = ',');

/// Reads a whole CSV file into rows of fields. Empty lines are skipped.
Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path, char sep = ',');

/// Writes rows to `path`, overwriting.
Status WriteCsvFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows,
                    char sep = ',');

/// dir + "/" + name, tolerating an empty or slash-terminated dir. The one
/// path-join used by every CSV dataset/delta reader and writer.
std::string PathJoin(const std::string& dir, const std::string& name);

/// Strictly parses a whole CSV field as a decimal integer in int range
/// (anything else, overflow included, is InvalidArgument); `what` names
/// the field in the error. Shared by the dataset and delta parsers so a
/// format tweak lands in exactly one place.
Result<int> ParseIntField(const std::string& field, const char* what);

}  // namespace io
}  // namespace mlp

#endif  // MLP_IO_CSV_H_
