#include "obs/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace gc::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

bool JsonValue::as_bool() const {
  GC_CHECK_MSG(kind_ == Kind::Bool, "JSON value is not a bool");
  return bool_;
}
double JsonValue::as_number() const {
  GC_CHECK_MSG(kind_ == Kind::Number, "JSON value is not a number");
  return num_;
}
const std::string& JsonValue::as_string() const {
  GC_CHECK_MSG(kind_ == Kind::String, "JSON value is not a string");
  return str_;
}
const JsonArray& JsonValue::as_array() const {
  GC_CHECK_MSG(kind_ == Kind::Array && arr_, "JSON value is not an array");
  return *arr_;
}
const JsonObject& JsonValue::as_object() const {
  GC_CHECK_MSG(kind_ == Kind::Object && obj_, "JSON value is not an object");
  return *obj_;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const auto& o = as_object();
  auto it = o.find(key);
  GC_CHECK_MSG(it != o.end(), "JSON object has no member \"" << key << '"');
  return it->second;
}

bool JsonValue::has(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  if (!has(key)) return fallback;
  return at(key).as_number();
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    const JsonValue v = value();
    skip_ws();
    GC_CHECK_MSG(pos_ == s_.size(),
                 "trailing JSON content at offset " << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    GC_CHECK_MSG(pos_ < s_.size(), "unexpected end of JSON");
    return s_[pos_];
  }

  void expect(char c) {
    GC_CHECK_MSG(pos_ < s_.size() && s_[pos_] == c,
                 "expected '" << c << "' at offset " << pos_);
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return nested([this] { return object(); });
      case '[': return nested([this] { return array(); });
      case '"': return JsonValue(string());
      case 't':
        GC_CHECK_MSG(consume_literal("true"), "bad literal at " << pos_);
        return JsonValue(true);
      case 'f':
        GC_CHECK_MSG(consume_literal("false"), "bad literal at " << pos_);
        return JsonValue(false);
      case 'n':
        GC_CHECK_MSG(consume_literal("null"), "bad literal at " << pos_);
        return JsonValue();
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonObject o;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(o));
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      o.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(o));
    }
  }

  JsonValue array() {
    expect('[');
    JsonArray a;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(a));
    }
    while (true) {
      a.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(std::move(a));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      GC_CHECK_MSG(pos_ < s_.size(), "unterminated JSON string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      GC_CHECK_MSG(pos_ < s_.size(), "unterminated JSON escape");
      c = s_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          GC_CHECK_MSG(pos_ + 4 <= s_.size(), "bad \\u escape");
          const unsigned long cp =
              std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // Latin-1 subset is all the trace schema emits; encode as UTF-8.
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          GC_CHECK_MSG(cp <= 0xFF, "\\u escape beyond Latin-1 unsupported");
          break;
        }
        default: GC_CHECK_MSG(false, "bad JSON escape '\\" << c << "'");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    GC_CHECK_MSG(pos_ > start, "expected JSON number at offset " << start);
    char* end = nullptr;
    const std::string tok = s_.substr(start, pos_ - start);
    const double v = std::strtod(tok.c_str(), &end);
    GC_CHECK_MSG(end && *end == '\0' && std::isfinite(v),
                 "bad JSON number \"" << tok << '"');
    return JsonValue(v);
  }

  // Bounds the recursion, so a deeply nested input is an error rather
  // than a stack overflow.
  template <class F>
  JsonValue nested(F parse) {
    GC_CHECK_MSG(++depth_ <= 256, "JSON nested deeper than 256 at offset "
                                      << pos_);
    JsonValue v = parse();
    --depth_;
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue json_parse(const std::string& text) { return Parser(text).parse(); }

// ---- JsonReader ---------------------------------------------------------

namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// What an error says it got: the value of a scalar, the kind of a
// container.
std::string got(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::Null: return "null";
    case JsonValue::Kind::Bool: return v.as_bool() ? "true" : "false";
    case JsonValue::Kind::Number: return fmt(v.as_number());
    case JsonValue::Kind::String: return '"' + v.as_string() + '"';
    case JsonValue::Kind::Array: return "array";
    case JsonValue::Kind::Object: return "object";
  }
  return "?";
}

const char* num_domain(Num d) {
  switch (d) {
    case Num::Any: return "number";
    case Num::Positive: return "number > 0";
    case Num::NonNegative: return "number >= 0";
    case Num::Unit: return "number in [0, 1]";
    case Num::UnitPositive: return "number in (0, 1]";
  }
  return "number";
}

bool num_ok(Num d, double v) {
  if (!std::isfinite(v)) return false;
  switch (d) {
    case Num::Any: return true;
    case Num::Positive: return v > 0.0;
    case Num::NonNegative: return v >= 0.0;
    case Num::Unit: return v >= 0.0 && v <= 1.0;
    case Num::UnitPositive: return v > 0.0 && v <= 1.0;
  }
  return false;
}

// A number member's value, NaN for any other kind (it fails every check).
double number_or_nan(const JsonValue& j) {
  return j.is_number() ? j.as_number() : std::nan("");
}

}  // namespace

JsonReader::JsonReader(const JsonValue& root, std::string label)
    : JsonReader(&root, "", std::move(label)) {}

JsonReader::JsonReader(const JsonValue* v, std::string path,
                       std::string label)
    : v_(v), path_(std::move(path)), label_(std::move(label)) {
  if (v_ != nullptr && !v_->is_object())
    fail("expected object, got " + got(*v_));
}

std::string JsonReader::join(const char* key) const {
  return path_.empty() ? std::string(key) : path_ + "." + key;
}

void JsonReader::fail(const std::string& msg) const {
  throw CheckError((path_.empty() ? label_ : path_) + ": " + msg);
}

void JsonReader::fail(const char* key, const std::string& msg) const {
  throw CheckError(join(key) + ": " + msg);
}

void JsonReader::expected(const char* key, const std::string& domain,
                          const JsonValue& j) const {
  fail(key, "expected " + domain + ", got " + got(j));
}

const JsonValue* JsonReader::member(JsonKey key) {
  bool noted = false;
  for (const JsonKey& k : known_)
    noted = noted || std::string_view(k.name) == key.name;
  if (!noted) known_.push_back(key);
  return v_ != nullptr && v_->has(key.name) ? &v_->at(key.name) : nullptr;
}

JsonReader JsonReader::child(JsonKey key) {
  return JsonReader(member(key), join(key.name), label_);
}

bool JsonReader::elements(JsonKey key, std::vector<JsonReader>& out) {
  const JsonValue* j = member(key);
  if (j == nullptr) return false;
  if (!j->is_array()) expected(key.name, "array of objects", *j);
  for (std::size_t i = 0; i < j->as_array().size(); ++i)
    out.push_back(JsonReader(&j->as_array()[i],
                             join(key.name) + "[" + std::to_string(i) + "]",
                             label_));
  return true;
}

void JsonReader::number(JsonKey key, double& v, Num domain) {
  const JsonValue* j = member(key);
  if (j == nullptr) return;
  if (!num_ok(domain, number_or_nan(*j)))
    expected(key.name, num_domain(domain), *j);
  v = j->as_number();
}

void JsonReader::integer(JsonKey key, int& v, int min) {
  const JsonValue* j = member(key);
  if (j == nullptr) return;
  const double d = number_or_nan(*j);
  if (!(d == std::floor(d) && d >= min && d <= 2147483647.0))
    expected(key.name, "int >= " + std::to_string(min), *j);
  v = static_cast<int>(d);
}

void JsonReader::u64(JsonKey key, std::uint64_t& v) {
  const JsonValue* j = member(key);
  if (j == nullptr) return;
  const double d = number_or_nan(*j);
  if (!(d == std::floor(d) && d >= 0.0 && d < 18446744073709551616.0))
    expected(key.name, "non-negative int", *j);
  v = static_cast<std::uint64_t>(d);
}

void JsonReader::boolean(JsonKey key, bool& v) {
  const JsonValue* j = member(key);
  if (j == nullptr) return;
  if (j->kind() != JsonValue::Kind::Bool) expected(key.name, "bool", *j);
  v = j->as_bool();
}

void JsonReader::string(JsonKey key, std::string& v) {
  const JsonValue* j = member(key);
  if (j == nullptr) return;
  if (j->kind() != JsonValue::Kind::String) expected(key.name, "string", *j);
  v = j->as_string();
}

void JsonReader::identifier(JsonKey key, std::string& v) {
  const JsonValue* j = member(key);
  if (j == nullptr) return;
  const auto safe = [](unsigned char c) {
    return std::isalnum(c) || c == '.' || c == '_' || c == '-';
  };
  if (j->kind() != JsonValue::Kind::String || j->as_string().empty() ||
      j->as_string().size() > 64 ||
      !std::all_of(j->as_string().begin(), j->as_string().end(), safe))
    expected(key.name,
             "string of [A-Za-z0-9._-], at most 64 characters", *j);
  v = j->as_string();
}

void JsonReader::number_array(JsonKey key, std::vector<double>& v,
                              Num domain) {
  const JsonValue* j = member(key);
  if (j == nullptr) return;
  if (!j->is_array()) expected(key.name, "array of numbers", *j);
  v.clear();
  for (std::size_t i = 0; i < j->as_array().size(); ++i) {
    const JsonValue& e = j->as_array()[i];
    const std::string at =
        std::string(key.name) + "[" + std::to_string(i) + "]";
    if (!num_ok(domain, number_or_nan(e)))
      expected(at.c_str(), num_domain(domain), e);
    v.push_back(e.as_number());
  }
}

void JsonReader::choice_index(JsonKey key, int& v,
                              std::span<const char* const> names) {
  const JsonValue* j = member(key);
  if (j == nullptr) return;
  for (std::size_t i = 0; i < names.size(); ++i)
    if (j->kind() == JsonValue::Kind::String && j->as_string() == names[i]) {
      v = static_cast<int>(i);
      return;
    }
  std::string domain = "one of ";
  for (std::size_t i = 0; i < names.size(); ++i)
    domain += std::string(i ? ", \"" : "\"") + names[i] + "\"";
  expected(key.name, domain, *j);
}

void JsonReader::close() {
  if (v_ != nullptr)
    for (const auto& [key, value] : v_->as_object()) {
      bool known = false;
      for (const JsonKey& k : known_) known = known || key == k.name;
      if (known) continue;
      std::string allowed;
      for (std::size_t i = 0; i < known_.size(); ++i)
        allowed += std::string(i ? ", " : "") + known_[i].name;
      fail("unknown key \"" + key + "\" (allowed: " + allowed + ")");
    }
  for (const JsonKey& k : known_)
    if (k.required && (v_ == nullptr || !v_->has(k.name)))
      fail(k.name, "required key missing");
}

std::string read_text_file(const std::string& path, const char* what) {
  std::ifstream in(path);
  GC_CHECK_MSG(in.good(), "cannot open " << what << ' ' << path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace gc::obs
