#include "json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  bool Document(Json* out, std::string* error) {
    if (!Value(out, 0)) {
      *error = error_ + " at byte " + std::to_string(pos_);
      return false;
    }
    Space();
    if (pos_ != s_.size()) {
      *error = "trailing bytes at " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  bool Fail(const char* what) {
    error_ = what;
    return false;
  }
  void Space() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Literal(const char* word) {
    size_t n = 0;
    while (word[n] != '\0') ++n;
    if (s_.compare(pos_, n, word) != 0) return Fail("bad literal");
    pos_ += n;
    return true;
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Fail("short \\u escape");
          const long code = std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // The service only escapes control characters this way.
          out->push_back(static_cast<char>(code & 0x7f));
          break;
        }
        default: out->push_back(e);
      }
    }
    return Fail("unterminated string");
  }

  bool Value(Json* out, int depth) {
    if (depth > 64) return Fail("nesting too deep");
    Space();
    if (pos_ >= s_.size()) return Fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') {
      out->kind = Json::Kind::kObject;
      ++pos_;
      Space();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        Space();
        if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected key");
        std::string key;
        if (!String(&key)) return false;
        Space();
        if (pos_ >= s_.size() || s_[pos_] != ':') return Fail("expected ':'");
        ++pos_;
        if (!Value(&out->object[key], depth + 1)) return false;
        Space();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      out->kind = Json::Kind::kArray;
      ++pos_;
      Space();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        out->array.emplace_back();
        if (!Value(&out->array.back(), depth + 1)) return false;
        Space();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return String(&out->text);
    }
    if (c == 't' || c == 'f') {
      out->kind = Json::Kind::kBool;
      out->boolean = c == 't';
      return Literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') {
      out->kind = Json::Kind::kNull;
      return Literal("null");
    }
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("unexpected character");
    out->kind = Json::Kind::kNumber;
    out->text = s_.substr(start, pos_ - start);
    char* end = nullptr;
    out->number = std::strtod(out->text.c_str(), &end);
    if (end != out->text.c_str() + out->text.size()) return Fail("bad number");
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const Json& Json::operator[](const std::string& key) const {
  static const Json kNull;
  auto it = object.find(key);
  return it == object.end() ? kNull : it->second;
}

double Json::Num(const std::string& key, double fallback) const {
  const Json& v = (*this)[key];
  return v.kind == Kind::kNumber ? v.number : fallback;
}

bool ParseJson(const std::string& text, Json* out, std::string* error) {
  *out = Json();
  return Reader(text).Document(out, error);
}

std::string JsonNum(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
