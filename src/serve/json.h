#ifndef MLP_SERVE_JSON_H_
#define MLP_SERVE_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace mlp {
namespace serve {

/// Escapes `s` for inclusion inside a JSON string literal (no surrounding
/// quotes). Control characters, quotes and backslashes become \-escapes.
std::string JsonEscape(std::string_view s);

/// Shortest decimal rendering of `v` that parses back to exactly the same
/// double — the serving layer's "byte-consistent posteriors" guarantee
/// rests on this round-trip.
std::string JsonDouble(double v);

/// Streaming JSON emitter with automatic comma placement. Values are
/// appended depth-first; the writer never buffers a tree, so building a
/// large batch response is one pass over the read model.
///
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("home"); w.Int(17);
///   w.Key("profile"); w.BeginArray(); w.Double(0.93); w.EndArray();
///   w.EndObject();
///   std::string body = std::move(w).Take();
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  void Key(std::string_view key);
  void String(std::string_view value);
  void Int(int64_t value);
  void Double(double value);
  void Bool(bool value);
  void Null();
  /// Splices an already-rendered JSON value (with comma handling) — the
  /// read model's pre-rendered fragments enter batch responses through
  /// here without re-rendering.
  void Raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string Take() && { return std::move(out_); }

 private:
  void Comma();

  std::string out_;
  std::vector<uint8_t> needs_comma_;  // one flag per open container
  bool after_key_ = false;
};

/// Parsed JSON document node. A deliberately small tree — just enough for
/// the batch endpoint's request bodies and for tests to read responses
/// back; not a general-purpose DOM.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  /// The number as an int64 when it is finite, integral and in range;
  /// `fallback` otherwise (and for non-numbers).
  int64_t AsInt(int64_t fallback = 0) const;
  double AsDouble(double fallback = 0.0) const;
};

/// Strict-enough recursive-descent parser: UTF-8 pass-through, \uXXXX
/// escapes (BMP), nesting capped at 64 levels, trailing garbage rejected.
/// Never crashes on malformed input — returns InvalidArgument instead.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace serve
}  // namespace mlp

#endif  // MLP_SERVE_JSON_H_
