#include "src/util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

namespace crius {

Json Json::Null() { return Json(); }

Json Json::Bool(bool v) {
  Json j;
  j.kind_ = Kind::kBool;
  j.b_ = v;
  return j;
}

Json Json::Number(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.num_ = v;
  return j;
}

Json Json::Str(std::string v) {
  Json j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(v);
  return j;
}

Json Json::Array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json& Json::Set(const std::string& key, Json value) {
  kind_ = Kind::kObject;
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  fields_.emplace_back(key, std::move(value));
  return fields_.back().second;
}

const Json* Json::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : fields_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

double Json::NumberOr(const std::string& key, double fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->is_number() ? v->num_ : fallback;
}

std::string Json::StringOr(const std::string& key, const std::string& fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->is_string() ? v->str_ : fallback;
}

bool Json::BoolOr(const std::string& key, bool fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->is_bool() ? v->b_ : fallback;
}

void Json::Push(Json value) {
  kind_ = Kind::kArray;
  items_.push_back(std::move(value));
}

std::string FormatJsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";  // JSON has no Inf/NaN; exporters clamp rather than emit invalid text
  }
  char buf[64];
  // Whole numbers (ids, counts, totals) print as plain integers: the shortest
  // round-trip form would render 100000 as "1e+05". Also maps -0 to "0".
  const auto res = v == std::floor(v) && std::abs(v) < 1e15
                       ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v))
                       : std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Json::EscapeString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void Json::SerializeTo(std::string* out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::string pad = pretty ? std::string(static_cast<size_t>(indent * (depth + 1)), ' ') : "";
  const std::string close_pad = pretty ? std::string(static_cast<size_t>(indent * depth), ' ') : "";
  const char* nl = pretty ? "\n" : "";
  const char* colon = pretty ? ": " : ":";
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += b_ ? "true" : "false";
      break;
    case Kind::kNumber:
      *out += FormatJsonNumber(num_);
      break;
    case Kind::kString:
      *out += EscapeString(str_);
      break;
    case Kind::kArray: {
      if (items_.empty()) {
        *out += "[]";
        break;
      }
      *out += "[";
      *out += nl;
      for (size_t i = 0; i < items_.size(); ++i) {
        *out += pad;
        items_[i].SerializeTo(out, indent, depth + 1);
        if (i + 1 < items_.size()) {
          *out += ",";
        }
        *out += nl;
      }
      *out += close_pad;
      *out += "]";
      break;
    }
    case Kind::kObject: {
      if (fields_.empty()) {
        *out += "{}";
        break;
      }
      *out += "{";
      *out += nl;
      for (size_t i = 0; i < fields_.size(); ++i) {
        *out += pad;
        *out += EscapeString(fields_[i].first);
        *out += colon;
        fields_[i].second.SerializeTo(out, indent, depth + 1);
        if (i + 1 < fields_.size()) {
          *out += ",";
        }
        *out += nl;
      }
      *out += close_pad;
      *out += "}";
      break;
    }
  }
}

std::string Json::Serialize(int indent) const {
  std::string out;
  SerializeTo(&out, indent, 0);
  return out;
}

namespace {

struct JsonParser {
  const std::string& s;
  size_t pos = 0;
  std::string* error;

  bool Fail(const std::string& message) {
    if (error != nullptr) {
      *error = message + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void SkipSpace() {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos])) != 0) {
      ++pos;
    }
  }

  bool ParseString(std::string* out) {
    if (pos >= s.size() || s[pos] != '"') {
      return Fail("expected string");
    }
    ++pos;
    out->clear();
    while (pos < s.size()) {
      const char c = s[pos++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= s.size()) {
        return Fail("dangling escape");
      }
      const char e = s[pos++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos + 4 > s.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          if (code > 0x7f) {
            return Fail("\\u escapes beyond ASCII are not supported");
          }
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return Fail(std::string("unsupported escape '\\") + e + "'");
      }
    }
    return Fail("unterminated string");
  }

  bool SkipDigits() {
    const size_t from = pos;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
      ++pos;
    }
    return pos > from;
  }

  // Strict JSON number grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?:
  // no hex, no leading '+' or '.', no inf/nan. Magnitudes a double cannot
  // hold (1e999, and 1e-400 which would flush to zero) are rejected too.
  bool ParseNumber(Json* out) {
    const size_t start = pos;
    if (s[pos] == '-') {
      ++pos;
    }
    if (pos < s.size() && s[pos] == '0') {
      ++pos;
    } else if (!SkipDigits()) {
      return Fail("bad number");
    }
    if (pos < s.size() && s[pos] == '.') {
      ++pos;
      if (!SkipDigits()) {
        return Fail("bad number");
      }
    }
    if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
      ++pos;
      if (pos < s.size() && (s[pos] == '+' || s[pos] == '-')) {
        ++pos;
      }
      if (!SkipDigits()) {
        return Fail("bad number");
      }
    }
    double v = 0.0;
    const auto res = std::from_chars(s.data() + start, s.data() + pos, v);
    if (res.ec != std::errc() || !std::isfinite(v)) {
      pos = start;
      return Fail("number out of range");
    }
    *out = Json::Number(v);
    return true;
  }

  bool ParseValue(Json* out, int depth) {
    if (depth > 64) {
      return Fail("nesting too deep");
    }
    SkipSpace();
    if (pos >= s.size()) {
      return Fail("expected value");
    }
    const char c = s[pos];
    if (c == '"') {
      std::string str;
      if (!ParseString(&str)) {
        return false;
      }
      *out = Json::Str(std::move(str));
      return true;
    }
    if (c == '{') {
      ++pos;
      *out = Json::Object();
      SkipSpace();
      if (pos < s.size() && s[pos] == '}') {
        ++pos;
        return true;
      }
      while (true) {
        SkipSpace();
        std::string key;
        if (!ParseString(&key)) {
          return false;
        }
        SkipSpace();
        if (pos >= s.size() || s[pos] != ':') {
          return Fail("expected ':'");
        }
        ++pos;
        Json value;
        if (!ParseValue(&value, depth + 1)) {
          return false;
        }
        out->Set(key, std::move(value));
        SkipSpace();
        if (pos < s.size() && s[pos] == ',') {
          ++pos;
          continue;
        }
        if (pos < s.size() && s[pos] == '}') {
          ++pos;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      *out = Json::Array();
      SkipSpace();
      if (pos < s.size() && s[pos] == ']') {
        ++pos;
        return true;
      }
      while (true) {
        Json value;
        if (!ParseValue(&value, depth + 1)) {
          return false;
        }
        out->Push(std::move(value));
        SkipSpace();
        if (pos < s.size() && s[pos] == ',') {
          ++pos;
          continue;
        }
        if (pos < s.size() && s[pos] == ']') {
          ++pos;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == 't' || c == 'f' || c == 'n') {
      const std::string word = c == 't' ? "true" : (c == 'f' ? "false" : "null");
      if (s.compare(pos, word.size(), word) != 0) {
        return Fail("bad literal");
      }
      pos += word.size();
      *out = c == 'n' ? Json::Null() : Json::Bool(c == 't');
      return true;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      return ParseNumber(out);
    }
    return Fail(std::string("unexpected character '") + c + "'");
  }
};

}  // namespace

bool Json::Parse(const std::string& text, Json* out, std::string* error) {
  JsonParser parser{text, 0, error};
  if (!parser.ParseValue(out, 0)) {
    return false;
  }
  parser.SkipSpace();
  if (parser.pos != text.size()) {
    return parser.Fail("trailing garbage");
  }
  return true;
}

}  // namespace crius
