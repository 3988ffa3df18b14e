// Minimal JSON value model used by the observability layer: the chrome-trace
// exporter, the serve wire protocol, the stats and metrics snapshots and the
// tests all speak this one type, so "export then re-parse" round-trips
// exactly.
//
// Deliberately small: numbers are doubles, object keys are kept in
// insertion order, no comments/NaN/Inf extensions. Parsing is strict
// (trailing garbage is an error).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pp::obs {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double d) : type_(Type::kNumber), num_(d) {}
  Json(int i) : type_(Type::kNumber), num_(i) {}
  Json(long long i) : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Json(unsigned long long i) : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Json(std::size_t i) : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }

  /// Array access.
  std::size_t size() const {
    return type_ == Type::kArray ? arr_.size()
           : type_ == Type::kObject ? obj_.size()
                                    : 0;
  }
  const Json& at(std::size_t i) const { return arr_[i]; }
  void push_back(Json v) { arr_.push_back(std::move(v)); }

  /// Object access. `set` replaces an existing key in place; `find` returns
  /// nullptr when absent.
  void set(const std::string& key, Json v);
  const Json* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }
  const std::vector<std::pair<std::string, Json>>& items() const { return obj_; }

  /// Serialization. indent < 0 emits the compact one-line form.
  std::string dump(int indent = -1) const;

  /// Strict parse of a complete document. On failure returns a null value
  /// and, when `err` is non-null, stores a human-readable message with the
  /// byte offset.
  static Json parse(const std::string& text, std::string* err = nullptr);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Tmp+rename file write shared by every observability artifact (the chrome
/// trace, serve stats dumps and the serve port file): writes `<path>.tmp`,
/// then renames it into place, so a killed process never leaves a
/// truncated file. fsync-free. Returns false on failure, leaving any
/// previous file at `path` untouched.
bool write_text_atomic(const std::string& path, const std::string& content);

}  // namespace pp::obs
