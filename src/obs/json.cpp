#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace pp::obs {

void Json::set(const std::string& key, Json v) {
  for (auto& kv : obj_) {
    if (kv.first == key) {
      kv.second = std::move(v);
      return;
    }
  }
  obj_.emplace_back(key, std::move(v));
}

const Json* Json::find(const std::string& key) const {
  for (const auto& kv : obj_)
    if (kv.first == key) return &kv.second;
  return nullptr;
}

namespace {

void escape_string(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void format_number(double d, std::string& out) {
  if (!std::isfinite(d)) {  // JSON has no NaN/Inf; degrade to null
    out += "null";
    return;
  }
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

void newline_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: format_number(num_, out); break;
    case Type::kString: escape_string(str_, out); break;
    case Type::kArray: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        if (indent >= 0) newline_indent(out, indent, depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      if (indent >= 0) newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        if (indent >= 0) newline_indent(out, indent, depth + 1);
        escape_string(obj_[i].first, out);
        out += indent >= 0 ? ": " : ":";
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      if (indent >= 0) newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* err)
      : s_(text), err_(err) {}

  Json run() {
    Json v = parse_value();
    if (failed_) return Json();
    skip_ws();
    if (pos_ != s_.size()) {
      fail("trailing characters after document");
      return Json();
    }
    return v;
  }

 private:
  void fail(const std::string& msg) {
    if (!failed_ && err_)
      *err_ = msg + " at offset " + std::to_string(pos_);
    failed_ = true;
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

  bool literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    if (pos_ >= s_.size()) {
      fail("unexpected end of input");
      return Json();
    }
    char c = s_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json(parse_string());
    if (c == 't') {
      if (literal("true")) return Json(true);
    } else if (c == 'f') {
      if (literal("false")) return Json(false);
    } else if (c == 'n') {
      if (literal("null")) return Json(nullptr);
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      return parse_number();
    }
    fail("unexpected character");
    return Json();
  }

  Json parse_number() {
    std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-'))
      ++pos_;
    char* end = nullptr;
    std::string tok = s_.substr(start, pos_ - start);
    double d = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0') {
      fail("bad number '" + tok + "'");
      return Json();
    }
    return Json(d);
  }

  std::string parse_string() {
    std::string out;
    if (!consume('"')) {
      fail("expected string");
      return out;
    }
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        char e = s_[pos_++];
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
            if (pos_ + 4 > s_.size()) {
              fail("truncated \\u escape");
              return out;
            }
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("bad \\u escape");
                return out;
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are rare in
            // our telemetry; emit the replacement pattern byte-wise).
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
            fail("bad escape");
            return out;
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
    return out;
  }

  Json parse_array() {
    Json arr = Json::array();
    consume('[');
    skip_ws();
    if (consume(']')) return arr;
    for (;;) {
      arr.push_back(parse_value());
      if (failed_) return arr;
      skip_ws();
      if (consume(']')) return arr;
      if (!consume(',')) {
        fail("expected ',' or ']' in array");
        return arr;
      }
    }
  }

  Json parse_object() {
    Json obj = Json::object();
    consume('{');
    skip_ws();
    if (consume('}')) return obj;
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      if (failed_) return obj;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return obj;
      }
      obj.set(key, parse_value());
      if (failed_) return obj;
      skip_ws();
      if (consume('}')) return obj;
      if (!consume(',')) {
        fail("expected ',' or '}' in object");
        return obj;
      }
    }
  }

  const std::string& s_;
  std::string* err_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace

Json Json::parse(const std::string& text, std::string* err) {
  return Parser(text, err).run();
}

bool write_text_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.good()) return false;
    out << content;
    out.flush();
    if (!out.good()) {
      out.close();
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    return false;
  }
  return true;
}

}  // namespace pp::obs
