#include "exec/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace mapg {

namespace {

const Json& null_json() {
  static const Json v;
  return v;
}

const std::string& empty_string() {
  static const std::string s;
  return s;
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : s_(text), error_(error) {}

  std::optional<Json> run() {
    skip_ws();
    std::optional<Json> v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing characters");
    return v;
  }

 private:
  std::optional<Json> fail(const std::string& what) {
    if (error_ != nullptr)
      *error_ = what + " at offset " + std::to_string(pos_);
    return std::nullopt;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  std::optional<Json> value() {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      std::optional<std::string> str = string_body();
      if (!str) return std::nullopt;
      return Json::string(std::move(*str));
    }
    if (literal("true")) return Json::boolean(true);
    if (literal("false")) return Json::boolean(false);
    if (literal("null")) return Json();
    return number();
  }

  std::optional<Json> number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return fail("expected a value");
    const std::string token = s_.substr(start, pos_ - start);
    // Validate by strtod: the token grammar above is a superset of JSON's.
    const char* begin = token.c_str();
    char* end = nullptr;
    std::strtod(begin, &end);
    if (end != begin + token.size()) return fail("malformed number");
    return Json::raw_number(token);
  }

  std::optional<std::string> string_body() {
    if (!consume('"')) return (fail("expected '\"'"), std::nullopt);
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size())
            return (fail("truncated \\u escape"), std::nullopt);
          const std::string hex = s_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const unsigned long cp = std::strtoul(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4)
            return (fail("bad \\u escape"), std::nullopt);
          // Encode the BMP code point as UTF-8 (no surrogate pairing —
          // the engine never emits any).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          return (fail("bad escape"), std::nullopt);
      }
    }
    return (fail("unterminated string"), std::nullopt);
  }

  std::optional<Json> array() {
    consume('[');
    Json out = Json::array();
    skip_ws();
    if (consume(']')) return out;
    while (true) {
      skip_ws();
      std::optional<Json> v = value();
      if (!v) return std::nullopt;
      out.push(std::move(*v));
      skip_ws();
      if (consume(']')) return out;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  std::optional<Json> object() {
    consume('{');
    Json out = Json::object();
    skip_ws();
    if (consume('}')) return out;
    while (true) {
      skip_ws();
      std::optional<std::string> key = string_body();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      std::optional<Json> v = value();
      if (!v) return std::nullopt;
      out[*key] = std::move(*v);
      skip_ws();
      if (consume('}')) return out;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string* error_;
};

}  // namespace

Json Json::boolean(bool v) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = v;
  return j;
}

Json Json::number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  Json j;
  j.type_ = Type::kNumber;
  j.scalar_ = buf;
  return j;
}

Json Json::number(std::uint64_t v) {
  Json j;
  j.type_ = Type::kNumber;
  j.scalar_ = std::to_string(v);
  return j;
}

Json Json::number(std::int64_t v) {
  Json j;
  j.type_ = Type::kNumber;
  j.scalar_ = std::to_string(v);
  return j;
}

Json Json::raw_number(std::string token) {
  Json j;
  j.type_ = Type::kNumber;
  j.scalar_ = std::move(token);
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.type_ = Type::kString;
  j.scalar_ = std::move(v);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::as_bool(bool dflt) const {
  return type_ == Type::kBool ? bool_ : dflt;
}

double Json::as_double(double dflt) const {
  if (type_ != Type::kNumber) return dflt;
  return std::strtod(scalar_.c_str(), nullptr);
}

std::uint64_t Json::as_u64(std::uint64_t dflt) const {
  if (type_ != Type::kNumber) return dflt;
  return std::strtoull(scalar_.c_str(), nullptr, 10);
}

std::int64_t Json::as_i64(std::int64_t dflt) const {
  if (type_ != Type::kNumber) return dflt;
  return std::strtoll(scalar_.c_str(), nullptr, 10);
}

const std::string& Json::as_string() const {
  return type_ == Type::kString ? scalar_ : empty_string();
}

void Json::push(Json v) {
  if (type_ != Type::kArray) throw std::logic_error("Json::push on non-array");
  arr_.push_back(std::move(v));
}

const Json& Json::at(std::size_t i) const {
  return i < arr_.size() ? arr_[i] : null_json();
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject)
    throw std::logic_error("Json::operator[] on non-object");
  return obj_[key];
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

const Json& Json::get(const std::string& key) const {
  const Json* v = find(key);
  return v != nullptr ? *v : null_json();
}

std::string Json::dump() const {
  std::string out;
  switch (type_) {
    case Type::kNull: out = "null"; break;
    case Type::kBool: out = bool_ ? "true" : "false"; break;
    case Type::kNumber: out = scalar_; break;
    case Type::kString: append_escaped(out, scalar_); break;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i != 0) out += ',';
        out += arr_[i].dump();
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        append_escaped(out, k);
        out += ':';
        out += v.dump();
      }
      out += '}';
      break;
    }
  }
  return out;
}

std::optional<Json> Json::parse(const std::string& text, std::string* error) {
  return Parser(text, error).run();
}

}  // namespace mapg
