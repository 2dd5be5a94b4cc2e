// Minimal strict JSON reader shared by the text frontends: the kernel file
// format (kernel_json.cpp) and the serve request protocol (src/serve/).
//
// Deliberately small: objects, arrays, strings, integers, doubles and
// booleans. Everything else (null, duplicate keys, trailing content) is
// rejected with a line-numbered error so authors and clients get actionable
// messages instead of silently-defaulted fields. Object pairs keep file
// order so error messages can point at the offending key.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gnndse::frontend::json {

/// Deepest object/array nesting parse_value accepts. Kernel files nest 5
/// levels (kernel > stmts > stmt > accesses > access) and serve requests
/// one more; anything past this bound fails like any other syntax error.
inline constexpr int kMaxDepth = 64;

struct Value {
  enum class Type { kObject, kArray, kString, kInt, kDouble, kBool };
  Type type = Type::kObject;
  std::vector<std::pair<std::string, Value>> object;
  std::vector<Value> array;
  std::string str;
  std::int64_t num = 0;   // kInt
  double dnum = 0.0;      // kDouble (kInt values mirror into dnum too)
  bool boolean = false;
  int line = 0;  // 1-based line the value started on

  /// Object member lookup; nullptr when absent (or not an object).
  const Value* find(const std::string& key) const;

  /// Numeric value of a kInt or kDouble (throws std::logic_error otherwise).
  double as_double() const;
};

/// Parses one JSON document; trailing non-whitespace content fails.
/// `context` prefixes error messages ("kernel json", "serve request").
/// With allow_float=false a fractional/exponent number fails with the
/// kernel format's historical "fields are integers" message; otherwise it
/// parses as kDouble.
/// Throws std::invalid_argument on any syntax error, including nesting
/// deeper than kMaxDepth.
Value parse_value(const std::string& text, const std::string& context,
                  bool allow_float = true);

}  // namespace gnndse::frontend::json
