#include "frontend/json_value.hpp"

#include <stdexcept>

namespace gnndse::frontend::json {
namespace {

class Reader {
 public:
  Reader(const std::string& text, const std::string& context, bool allow_float)
      : text_(text), context_(context), allow_float_(allow_float) {}

  Value parse() {
    Value v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after the top-level value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw std::invalid_argument(context_ + ", line " + std::to_string(line_) +
                                ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    ++pos_;
  }

  /// `depth` counts the containers already open around this value; the
  /// bound keeps the recursion (and Value's recursive destructor) off the
  /// end of the stack however deep the input nests.
  Value value(int depth) {
    const char c = peek();
    if ((c == '{' || c == '[') && depth >= kMaxDepth)
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    Value v;
    v.line = line_;
    if (c == '{') {
      v.type = Value::Type::kObject;
      ++pos_;
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        Value key = string_value();
        expect(':');
        for (const auto& kv : v.object)
          if (kv.first == key.str) fail("duplicate key \"" + key.str + "\"");
        v.object.emplace_back(key.str, value(depth + 1));
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.type = Value::Type::kArray;
      ++pos_;
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v.array.push_back(value(depth + 1));
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') {
      v.type = Value::Type::kBool;
      const char* word = c == 't' ? "true" : "false";
      for (const char* p = word; *p; ++p, ++pos_)
        if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
      v.boolean = c == 't';
      return v;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      v.type = Value::Type::kInt;
      const std::size_t start = pos_;
      if (c == '-') ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
      bool is_float = false;
      if (pos_ < text_.size() &&
          (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
        if (!allow_float_) fail("kernel fields are integers; got a float");
        is_float = true;
        if (text_[pos_] == '.') {
          ++pos_;
          while (pos_ < text_.size() && text_[pos_] >= '0' &&
                 text_[pos_] <= '9')
            ++pos_;
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
          ++pos_;
          if (pos_ < text_.size() &&
              (text_[pos_] == '+' || text_[pos_] == '-'))
            ++pos_;
          while (pos_ < text_.size() && text_[pos_] >= '0' &&
                 text_[pos_] <= '9')
            ++pos_;
        }
      }
      if (pos_ == start + (c == '-' ? 1u : 0u)) fail("bad number");
      const std::string tok = text_.substr(start, pos_ - start);
      try {
        if (is_float) {
          v.type = Value::Type::kDouble;
          v.dnum = std::stod(tok);
        } else {
          v.num = std::stoll(tok);
          v.dnum = static_cast<double>(v.num);
        }
      } catch (const std::exception&) {
        fail("bad number '" + tok + "'");
      }
      return v;
    }
    fail(std::string("unexpected character '") + c + "'");
  }

  Value string_value() {
    Value v;
    v.type = Value::Type::kString;
    v.line = line_;
    expect('"');
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c == '\n') fail("newline inside string");
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        if (e == '"' || e == '\\' || e == '/')
          v.str += e;
        else if (e == 'n')
          v.str += '\n';
        else
          fail("unsupported escape sequence");
        continue;
      }
      v.str += c;
    }
  }

  const std::string& text_;
  const std::string& context_;
  bool allow_float_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  for (const auto& kv : object)
    if (kv.first == key) return &kv.second;
  return nullptr;
}

double Value::as_double() const {
  if (type == Type::kInt) return static_cast<double>(num);
  if (type == Type::kDouble) return dnum;
  throw std::logic_error("json::Value::as_double on a non-numeric value");
}

Value parse_value(const std::string& text, const std::string& context,
                  bool allow_float) {
  return Reader(text, context, allow_float).parse();
}

}  // namespace gnndse::frontend::json
