#include "serve/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "common/string_util.h"

namespace mlp {
namespace serve {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          out += StringPrintf("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

// Longest %.17g rendering is "-d.dddddddddddddddde-308" (24 chars).
constexpr int kDoubleBufferSize = 32;

/// Writes the shortest of the 15/16/17-significant-digit renderings of `v`
/// that parses back to exactly `v` into `buf` and returns its end; 17
/// digits always round-trips an IEEE double (NaN never compares equal, so
/// it lands there too). to_chars with a precision is printf's "%.*g" in
/// the C locale byte for byte and from_chars parses exactly like strtod,
/// so the output equals a snprintf + strtod loop's while skipping its
/// format-string parse and per-attempt heap string.
char* FormatJsonDouble(double v, char* buf) {
  char* end = buf;
  for (int precision : {15, 16, 17}) {
    end = std::to_chars(buf, buf + kDoubleBufferSize, v,
                        std::chars_format::general, precision)
              .ptr;
    double back = 0.0;
    const std::from_chars_result parsed = std::from_chars(buf, end, back);
    if (parsed.ec == std::errc() && back == v) break;
  }
  return end;
}

}  // namespace

std::string JsonDouble(double v) {
  char buf[kDoubleBufferSize];
  return std::string(buf, FormatJsonDouble(v, buf));
}

// ------------------------------------------------------------- JsonWriter

void JsonWriter::Comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = 1;
  }
}

void JsonWriter::BeginObject() {
  Comma();
  out_ += '{';
  needs_comma_.push_back(0);
}

void JsonWriter::EndObject() {
  out_ += '}';
  needs_comma_.pop_back();
}

void JsonWriter::BeginArray() {
  Comma();
  out_ += '[';
  needs_comma_.push_back(0);
}

void JsonWriter::EndArray() {
  out_ += ']';
  needs_comma_.pop_back();
}

void JsonWriter::Key(std::string_view key) {
  Comma();
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
  after_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  Comma();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
}

void JsonWriter::Int(int64_t value) {
  Comma();
  out_ += std::to_string(value);
}

void JsonWriter::Double(double value) {
  Comma();
  char buf[kDoubleBufferSize];
  out_.append(buf, FormatJsonDouble(value, buf));
}

void JsonWriter::Bool(bool value) {
  Comma();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  Comma();
  out_ += "null";
}

void JsonWriter::Raw(std::string_view json) {
  Comma();
  out_ += json;
}

// -------------------------------------------------------------- JsonValue

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

int64_t JsonValue::AsInt(int64_t fallback) const {
  // Only an integral number inside int64's range converts: 3.5 must not
  // truncate to 3, and casting 1e30 (or NaN) to int64 is undefined.
  constexpr double kTwoTo63 = 9223372036854775808.0;
  if (type != Type::kNumber || !std::isfinite(number) ||
      number != std::trunc(number) || number < -kTwoTo63 ||
      number >= kTwoTo63) {
    return fallback;
  }
  return static_cast<int64_t>(number);
}

double JsonValue::AsDouble(double fallback) const {
  return type == Type::kNumber ? number : fallback;
}

// ----------------------------------------------------------------- parser

namespace {

constexpr int kMaxDepth = 64;

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    Status s = ParseValue(&value, 0);
    if (!s.ok()) return s;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument(Error("trailing characters"));
    }
    return value;
  }

 private:
  std::string Error(const std::string& what) const {
    return "json parse error at byte " + std::to_string(pos_) + ": " + what;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Status::InvalidArgument(Error("too deep"));
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument(Error("unexpected end of input"));
    }
    char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->string_value);
    }
    if (ConsumeLiteral("true")) {
      out->type = JsonValue::Type::kBool;
      out->bool_value = true;
      return Status::OK();
    }
    if (ConsumeLiteral("false")) {
      out->type = JsonValue::Type::kBool;
      out->bool_value = false;
      return Status::OK();
    }
    if (ConsumeLiteral("null")) {
      out->type = JsonValue::Type::kNull;
      return Status::OK();
    }
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
    return Status::InvalidArgument(Error("unexpected character"));
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Status::InvalidArgument(Error("expected member name"));
      }
      std::string key;
      Status s = ParseString(&key);
      if (!s.ok()) return s;
      SkipWhitespace();
      if (!Consume(':')) return Status::InvalidArgument(Error("expected ':'"));
      JsonValue value;
      s = ParseValue(&value, depth + 1);
      if (!s.ok()) return s;
      out->members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Status::InvalidArgument(Error("expected ',' or '}'"));
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue value;
      Status s = ParseValue(&value, depth + 1);
      if (!s.ok()) return s;
      out->items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Status::InvalidArgument(Error("expected ',' or ']'"));
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      unsigned char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Status::InvalidArgument(Error("raw control char"));
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument(Error("dangling escape"));
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::InvalidArgument(Error("short \\u escape"));
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= h - '0';
            } else if (h >= 'a' && h <= 'f') {
              code |= h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              code |= h - 'A' + 10;
            } else {
              return Status::InvalidArgument(Error("bad \\u escape"));
            }
          }
          // BMP code points, UTF-8 encoded. Surrogates (which would need a
          // pair) degrade to U+FFFD rather than failing the whole body.
          if (code >= 0xD800 && code <= 0xDFFF) code = 0xFFFD;
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Status::InvalidArgument(Error("unknown escape"));
      }
    }
    return Status::InvalidArgument(Error("unterminated string"));
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (Consume('.')) {
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty() ||
        token == "-") {
      return Status::InvalidArgument(Error("malformed number"));
    }
    out->type = JsonValue::Type::kNumber;
    out->number = value;
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace serve
}  // namespace mlp
