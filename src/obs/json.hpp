// Minimal JSON support: string escaping for the writer side
// (obs::TraceSink), a small recursive-descent parser for the reader side
// (tools/trace_summarize, tests), and JsonReader, the one validating reader
// behind the JSON spec files (scenario, fault and alert specs). Covers the
// full JSON grammar except \uXXXX escapes beyond Latin-1, which no schema
// here emits.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace gc::obs {

// Escapes `s` for embedding inside a JSON string literal (no quotes added).
std::string json_escape(const std::string& s);

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;
  explicit JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  explicit JsonValue(double n) : kind_(Kind::Number), num_(n) {}
  explicit JsonValue(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
  explicit JsonValue(JsonArray a)
      : kind_(Kind::Array), arr_(std::make_shared<JsonArray>(std::move(a))) {}
  explicit JsonValue(JsonObject o)
      : kind_(Kind::Object),
        obj_(std::make_shared<JsonObject>(std::move(o))) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  // Object member access; throws CheckError when absent / not an object.
  const JsonValue& at(const std::string& key) const;
  bool has(const std::string& key) const;
  // Convenience: member `key` as a number, or `fallback` when absent.
  double number_or(const std::string& key, double fallback) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::shared_ptr<JsonArray> arr_;
  std::shared_ptr<JsonObject> obj_;
};

// Parses exactly one JSON value from `text` (surrounding whitespace ok);
// throws gc::CheckError with position info on malformed input.
JsonValue json_parse(const std::string& text);

// ---- Validating schema reader -----------------------------------------

// One key of a schema's field list. `tag` is opaque to JsonReader: writers
// walking the same list use it to pick fields (the scenario spec tags its
// workload fields). A `required` key must be present; any other absent key
// leaves its field, i.e. its default, as it is.
struct JsonKey {
  JsonKey(const char* key, int tag_ = 0, bool required_ = false)
      : name(key), tag(tag_), required(required_) {}
  const char* name;
  int tag;
  bool required;
};

inline JsonKey required(const char* key) { return JsonKey(key, 0, true); }

// Numeric domain of a number field; the error names it.
enum class Num {
  Any,           // any finite number
  Positive,      // > 0
  NonNegative,   // >= 0
  Unit,          // [0, 1]
  UnitPositive,  // (0, 1]
};

// Reads one JSON object as a schema's field list walks it. Each getter
// validates a member and stores it into the caller's field, and notes the
// key; when the object's walk ends, unknown keys and then missing required
// keys are rejected (object() and array() do this for sub-objects, the
// caller calls close() on the root). Errors are gc::CheckError naming the
// dotted key path and the accepted domain:
//   topology.cells.rows: expected int >= 1, got -3
//   events[0]: unknown key "strat" (allowed: kind, node, peer, ...)
// A reader over an absent member walks an empty object: all defaults.
class JsonReader {
 public:
  static constexpr bool kReading = true;

  // `label` names the root object in its own errors ("fault spec: ...").
  JsonReader(const JsonValue& root, std::string label);

  void number(JsonKey key, double& v, Num domain = Num::Any);
  void integer(JsonKey key, int& v, int min);
  void u64(JsonKey key, std::uint64_t& v);
  void boolean(JsonKey key, bool& v);
  void string(JsonKey key, std::string& v);
  // A name safe in filenames and headers: [A-Za-z0-9._-], 1..64 chars.
  void identifier(JsonKey key, std::string& v);
  void number_array(JsonKey key, std::vector<double>& v, Num domain);

  // A string out of `names`, stored as its index (an enum in name order).
  template <class E>
  void choice(JsonKey key, E& v, std::span<const char* const> names) {
    int i = static_cast<int>(v);
    choice_index(key, i, names);
    v = static_cast<E>(i);
  }

  // Sub-object `key`, walked by fields(reader).
  template <class F>
  void object(JsonKey key, F fields) {
    JsonReader sub = child(key);
    fields(sub);
    sub.close();
  }

  // Array of objects: `v` gets one default element per entry, each walked
  // by fields(reader, element). An absent key leaves `v` as it is.
  template <class T, class F>
  void array(JsonKey key, std::vector<T>& v, F fields) {
    std::vector<JsonReader> items;
    if (!elements(key, items)) return;
    v.assign(items.size(), T{});
    for (std::size_t i = 0; i < items.size(); ++i) {
      fields(items[i], v[i]);
      items[i].close();
    }
  }

  // Rejects keys no getter asked for, then required keys left absent.
  void close();

  // Throws a CheckError at this object's path, or at its member `key`.
  [[noreturn]] void fail(const std::string& msg) const;
  [[noreturn]] void fail(const char* key, const std::string& msg) const;

 private:
  JsonReader(const JsonValue* v, std::string path, std::string label);
  [[noreturn]] void expected(const char* key, const std::string& domain,
                             const JsonValue& j) const;
  const JsonValue* member(JsonKey key);
  JsonReader child(JsonKey key);
  bool elements(JsonKey key, std::vector<JsonReader>& out);
  void choice_index(JsonKey key, int& v, std::span<const char* const> names);
  std::string join(const char* key) const;

  const JsonValue* v_;
  std::string path_;
  std::string label_;
  std::vector<JsonKey> known_;
};

// The text of the file at `path`; throws CheckError "cannot open <what>
// <path>" when it cannot be read.
std::string read_text_file(const std::string& path, const char* what);

// Reads the file at `path` and returns parse(text). A CheckError from
// `parse` is rethrown naming the file: "<what> <path>: <error>".
template <class Parse>
auto read_json_file(const std::string& path, const char* what, Parse parse) {
  const std::string text = read_text_file(path, what);
  try {
    return parse(text);
  } catch (const CheckError& e) {
    throw CheckError(std::string(what) + ' ' + path + ": " + e.what());
  }
}

}  // namespace gc::obs
