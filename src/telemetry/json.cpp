#include "telemetry/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/assert.hpp"

namespace pmo::telemetry::json {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double v, bool is_int) {
  if (std::isnan(v) || std::isinf(v)) {  // JSON has no NaN/Inf
    out += "null";
    return;
  }
  const bool integral =
      is_int || (v == std::floor(v) && std::fabs(v) < 9.0e15);
  char buf[40];
  if (integral) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  }
  out += buf;
}

void indent(std::string& out, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

}  // namespace

Value& Value::operator[](const std::string& key) {
  PMO_CHECK_MSG(type_ == Type::kObject || type_ == Type::kNull,
                "json: operator[] on non-object");
  type_ = Type::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) return v;
  }
  members_.emplace_back(key, Value{});
  return members_.back().second;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Value::push_back(Value v) {
  PMO_CHECK_MSG(type_ == Type::kArray || type_ == Type::kNull,
                "json: push_back on non-array");
  type_ = Type::kArray;
  elems_.push_back(std::move(v));
}

std::size_t Value::size() const noexcept {
  return type_ == Type::kArray ? elems_.size() : members_.size();
}

void Value::dump_to(std::string& out, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: append_number(out, num_, is_int_); return;
    case Type::kString: append_escaped(out, str_); return;
    case Type::kArray: {
      if (elems_.empty()) {
        out += "[]";
        return;
      }
      bool scalar_only = true;
      for (const auto& e : elems_)
        scalar_only &= !e.is_array() && !e.is_object();
      if (scalar_only) {
        out.push_back('[');
        for (std::size_t i = 0; i < elems_.size(); ++i) {
          if (i != 0) out += ", ";
          elems_[i].dump_to(out, depth);
        }
        out.push_back(']');
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < elems_.size(); ++i) {
        indent(out, depth + 1);
        elems_[i].dump_to(out, depth + 1);
        if (i + 1 != elems_.size()) out.push_back(',');
        out.push_back('\n');
      }
      indent(out, depth);
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        indent(out, depth + 1);
        append_escaped(out, members_[i].first);
        out += ": ";
        members_[i].second.dump_to(out, depth + 1);
        if (i + 1 != members_.size()) out.push_back(',');
        out.push_back('\n');
      }
      indent(out, depth);
      out.push_back('}');
      return;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  dump_to(out, 0);
  out.push_back('\n');
  return out;
}

// ---------------------------------------------------------------------------
// parser
// ---------------------------------------------------------------------------

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& msg) {
    if (error.empty())
      error = msg + " at offset " + std::to_string(pos);
    return false;
  }
  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
      ++pos;
  }
  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }
  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) == word) {
      pos += word.size();
      return true;
    }
    return fail("bad literal");
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return fail("bad escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("bad \\u escape");
            const std::string hex(text.substr(pos, 4));
            pos += 4;
            const auto cp =
                static_cast<unsigned>(std::strtoul(hex.c_str(), nullptr, 16));
            // Basic-multilingual-plane code points only; encode as UTF-8.
            if (cp < 0x80) {
              out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
              out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default: return fail("bad escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return fail("unterminated string");
  }

  bool parse_value(Value& out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end");
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out = Value::object();
      skip_ws();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      while (true) {
        std::string key;
        if (!parse_string(key)) return false;
        if (!consume(':')) return false;
        Value member;
        if (!parse_value(member)) return false;
        out[key] = std::move(member);
        skip_ws();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          skip_ws();
          continue;
        }
        return consume('}');
      }
    }
    if (c == '[') {
      ++pos;
      out = Value::array();
      skip_ws();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      while (true) {
        Value elem;
        if (!parse_value(elem)) return false;
        out.push_back(std::move(elem));
        skip_ws();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        return consume(']');
      }
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = Value(std::move(s));
      return true;
    }
    if (c == 't') {
      out = Value(true);
      return literal("true");
    }
    if (c == 'f') {
      out = Value(false);
      return literal("false");
    }
    if (c == 'n') {
      out = Value();
      return literal("null");
    }
    // number
    const std::size_t start = pos;
    if (text[pos] == '-') ++pos;
    bool has_frac = false;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      has_frac |= text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E';
      ++pos;
    }
    if (pos == start) return fail("unexpected character");
    const std::string num(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return fail("bad number");
    out = has_frac ? Value(v) : Value(static_cast<std::int64_t>(v));
    return true;
  }
};

}  // namespace

std::optional<Value> Value::parse(std::string_view text, std::string* error) {
  Parser p{text, 0, {}};
  Value v;
  if (!p.parse_value(v)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error != nullptr) *error = "trailing characters";
    return std::nullopt;
  }
  return v;
}

}  // namespace pmo::telemetry::json
