#include "scenario/param_set.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace ftnav {
namespace {

[[noreturn]] void fail(const std::string& message) {
  throw ParamError(message);
}

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/// Whole-token strict parses; partial consumption is a ParamError at
/// the caller (typos like "30s" or "1e999" must not half-apply).
bool parse_int_token(const std::string& token, std::int64_t& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || errno == ERANGE) return false;
  out = value;
  return true;
}

bool parse_double_token(const std::string& token, double& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || !std::isfinite(value))
    return false;
  out = value;
  return true;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> elements;
  if (text.empty()) return elements;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    elements.push_back(text.substr(start, comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return elements;
}

void check_range(const ParamSpec& spec, double value) {
  if (value < spec.min_value || value > spec.max_value)
    fail("parameter '" + spec.name + "': value " +
         param_format_double(value) + " out of range [" +
         param_format_double(spec.min_value) + ", " +
         param_format_double(spec.max_value) + "]");
}

/// Parses + validates `value` for `spec` and returns its canonical
/// rendering ("007" -> "7", "1" -> "true", "0.0050" -> "0.005").
std::string canonicalize(const ParamSpec& spec, const std::string& value) {
  switch (spec.type) {
    case ParamType::kInt: {
      std::int64_t parsed = 0;
      if (!parse_int_token(value, parsed))
        fail("parameter '" + spec.name + "': '" + value +
             "' is not an integer");
      check_range(spec, static_cast<double>(parsed));
      return std::to_string(parsed);
    }
    case ParamType::kDouble: {
      double parsed = 0.0;
      if (!parse_double_token(value, parsed))
        fail("parameter '" + spec.name + "': '" + value +
             "' is not a finite number");
      check_range(spec, parsed);
      return param_format_double(parsed);
    }
    case ParamType::kBool: {
      if (value == "true" || value == "1") return "true";
      if (value == "false" || value == "0") return "false";
      fail("parameter '" + spec.name + "': '" + value +
           "' is not a boolean (use true/false)");
    }
    case ParamType::kString: {
      for (char c : value)
        if (is_space(c) || c == '=')
          fail("parameter '" + spec.name +
               "': string values must not contain whitespace or '='");
      return value;
    }
    case ParamType::kChoice: {
      if (std::find(spec.choices.begin(), spec.choices.end(), value) ==
          spec.choices.end()) {
        std::string allowed;
        for (const std::string& choice : spec.choices) {
          allowed += allowed.empty() ? "" : "|";
          allowed += choice;
        }
        fail("parameter '" + spec.name + "': '" + value +
             "' is not one of " + allowed);
      }
      return value;
    }
    case ParamType::kIntList: {
      if (value.empty())
        fail("parameter '" + spec.name + "': list must not be empty");
      std::string canonical;
      for (const std::string& element : split_list(value)) {
        std::int64_t parsed = 0;
        if (!parse_int_token(element, parsed))
          fail("parameter '" + spec.name + "': list element '" + element +
               "' is not an integer");
        check_range(spec, static_cast<double>(parsed));
        if (!canonical.empty()) canonical += ',';
        canonical += std::to_string(parsed);
      }
      return canonical;
    }
    case ParamType::kDoubleList: {
      if (value.empty())
        fail("parameter '" + spec.name + "': list must not be empty");
      std::string canonical;
      for (const std::string& element : split_list(value)) {
        double parsed = 0.0;
        if (!parse_double_token(element, parsed))
          fail("parameter '" + spec.name + "': list element '" + element +
               "' is not a finite number");
        check_range(spec, parsed);
        if (!canonical.empty()) canonical += ',';
        canonical += param_format_double(parsed);
      }
      return canonical;
    }
  }
  fail("parameter '" + spec.name + "': unknown type");
}

void require_type(const ParamSpec& spec, ParamType type,
                  const char* getter) {
  if (spec.type != type)
    fail("parameter '" + spec.name + "' is " + to_string(spec.type) +
         ", not readable via " + getter);
}

}  // namespace

std::string to_string(ParamType type) {
  switch (type) {
    case ParamType::kInt: return "int";
    case ParamType::kDouble: return "double";
    case ParamType::kBool: return "bool";
    case ParamType::kString: return "string";
    case ParamType::kChoice: return "choice";
    case ParamType::kIntList: return "int-list";
    case ParamType::kDoubleList: return "double-list";
  }
  return "unknown";
}

std::string param_format_double(double value) {
  char buffer[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  // The lowest precision that round-trips has the fewest digits, but %g
  // writes a value of at least 10^precision with an exponent (30 is
  // "3e+01" at %.1g). The one shorter candidate is then the plain
  // integer at the precision that covers every integer digit ("30" at
  // %.2g); any other precision that round-trips gives a string at least
  // as long, and a tie keeps the lower precision.
  const char* exponent = std::strchr(buffer, 'e');
  if (exponent != nullptr && exponent[1] == '+') {
    const int integer_digits = std::atoi(exponent + 2) + 1;
    char plain[40];
    if (integer_digits <= 17) {
      std::snprintf(plain, sizeof plain, "%.*g", integer_digits, value);
      if (std::strlen(plain) < std::strlen(buffer)) return plain;
    }
  }
  return buffer;
}

std::string param_join(const std::vector<double>& values) {
  std::string joined;
  for (double value : values) {
    if (!joined.empty()) joined += ',';
    joined += param_format_double(value);
  }
  return joined;
}

std::string param_join(const std::vector<std::int64_t>& values) {
  std::string joined;
  for (std::int64_t value : values) {
    if (!joined.empty()) joined += ',';
    joined += std::to_string(value);
  }
  return joined;
}

std::string param_join(const std::vector<int>& values) {
  std::string joined;
  for (int value : values) {
    if (!joined.empty()) joined += ',';
    joined += std::to_string(value);
  }
  return joined;
}

// ---- ParamSpec factories --------------------------------------------------

ParamSpec ParamSpec::integer(std::string name, std::int64_t default_value,
                             std::string doc, double min_value,
                             double max_value) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.type = ParamType::kInt;
  spec.default_value = std::to_string(default_value);
  spec.doc = std::move(doc);
  spec.min_value = min_value;
  spec.max_value = max_value;
  return spec;
}

ParamSpec ParamSpec::real(std::string name, double default_value,
                          std::string doc, double min_value,
                          double max_value) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.type = ParamType::kDouble;
  spec.default_value = param_format_double(default_value);
  spec.doc = std::move(doc);
  spec.min_value = min_value;
  spec.max_value = max_value;
  return spec;
}

ParamSpec ParamSpec::boolean(std::string name, bool default_value,
                             std::string doc) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.type = ParamType::kBool;
  spec.default_value = default_value ? "true" : "false";
  spec.doc = std::move(doc);
  return spec;
}

ParamSpec ParamSpec::text(std::string name, std::string default_value,
                          std::string doc) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.type = ParamType::kString;
  spec.default_value = std::move(default_value);
  spec.doc = std::move(doc);
  return spec;
}

ParamSpec ParamSpec::choice(std::string name, std::string default_value,
                            std::string doc,
                            std::vector<std::string> choices) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.type = ParamType::kChoice;
  spec.default_value = std::move(default_value);
  spec.doc = std::move(doc);
  spec.choices = std::move(choices);
  return spec;
}

ParamSpec ParamSpec::int_list(std::string name,
                              const std::vector<std::int64_t>& default_value,
                              std::string doc, double min_value,
                              double max_value) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.type = ParamType::kIntList;
  spec.default_value = param_join(default_value);
  spec.doc = std::move(doc);
  spec.min_value = min_value;
  spec.max_value = max_value;
  return spec;
}

ParamSpec ParamSpec::double_list(std::string name,
                                 const std::vector<double>& default_value,
                                 std::string doc, double min_value,
                                 double max_value) {
  ParamSpec spec;
  spec.name = std::move(name);
  spec.type = ParamType::kDoubleList;
  spec.default_value = param_join(default_value);
  spec.doc = std::move(doc);
  spec.min_value = min_value;
  spec.max_value = max_value;
  return spec;
}

// ---- ParamSet -------------------------------------------------------------

ParamSet::ParamSet(std::vector<ParamSpec> schema)
    : schema_(std::move(schema)) {
  slots_.reserve(schema_.size());
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    const ParamSpec& spec = schema_[i];
    for (std::size_t j = 0; j < i; ++j)
      if (schema_[j].name == spec.name)
        fail("schema declares parameter '" + spec.name + "' twice");
    if (spec.name.empty()) fail("schema declares an unnamed parameter");
    Slot slot;
    slot.canonical = canonicalize(spec, spec.default_value);
    slots_.push_back(std::move(slot));
  }
}

bool ParamSet::has(const std::string& name) const noexcept {
  for (const ParamSpec& spec : schema_)
    if (spec.name == name) return true;
  return false;
}

std::size_t ParamSet::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < schema_.size(); ++i)
    if (schema_[i].name == name) return i;
  fail("unknown parameter '" + name + "'");
}

const ParamSpec& ParamSet::spec_at(const std::string& name) const {
  return schema_[index_of(name)];
}

void ParamSet::set(const std::string& name, const std::string& value,
                   ParamSource source) {
  const std::size_t index = index_of(name);
  // Validate unconditionally: a malformed value is an error even when
  // a higher-ranked source would mask it.
  std::string canonical = canonicalize(schema_[index], value);
  Slot& slot = slots_[index];
  if (static_cast<int>(source) < static_cast<int>(slot.source)) return;
  slot.canonical = std::move(canonical);
  slot.source = source;
}

void ParamSet::apply_kv_text(const std::string& text, ParamSource source) {
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    if (i >= text.size()) break;
    std::size_t end = i;
    while (end < text.size() && !is_space(text[end])) ++end;
    const std::string token = text.substr(i, end - i);
    const std::size_t equals = token.find('=');
    if (equals == std::string::npos || equals == 0)
      fail("expected k=v, got '" + token + "'");
    set(token.substr(0, equals), token.substr(equals + 1), source);
    i = end;
  }
}

// ---- minimal flat-object JSON parser --------------------------------------

namespace {

struct JsonCursor {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() && is_space(text[pos])) ++pos;
  }
  bool at_end() {
    skip_ws();
    return pos >= text.size();
  }
  char peek() {
    skip_ws();
    if (pos >= text.size()) fail("config JSON: unexpected end of input");
    return text[pos];
  }
  void expect(char c) {
    if (peek() != c)
      fail(std::string("config JSON: expected '") + c + "' at offset " +
           std::to_string(pos));
    ++pos;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\') {
        if (pos >= text.size()) fail("config JSON: dangling escape");
        const char escaped = text[pos++];
        switch (escaped) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default:
            fail("config JSON: unsupported escape sequence");
        }
      }
      out += c;
    }
    if (pos >= text.size()) fail("config JSON: unterminated string");
    ++pos;  // closing quote
    return out;
  }

  /// A scalar rendered as the parameter-value text it stands for.
  std::string parse_scalar() {
    const char c = peek();
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f' || c == '-' || c == '+' ||
        (c >= '0' && c <= '9') || c == '.') {
      std::size_t end = pos;
      while (end < text.size() && text[end] != ',' && text[end] != '}' &&
             text[end] != ']' && !is_space(text[end]))
        ++end;
      std::string token = text.substr(pos, end - pos);
      pos = end;
      return token;
    }
    fail("config JSON: unsupported value at offset " + std::to_string(pos));
  }

  /// A value: scalar, or a flat array of scalars (joined by commas —
  /// the canonical list form).
  std::string parse_value() {
    if (peek() != '[') return parse_scalar();
    ++pos;  // '['
    std::string joined;
    if (peek() == ']') {
      ++pos;
      return joined;
    }
    while (true) {
      if (!joined.empty()) joined += ',';
      joined += parse_scalar();
      const char c = peek();
      if (c == ']') {
        ++pos;
        break;
      }
      expect(',');
    }
    return joined;
  }
};

}  // namespace

void ParamSet::apply_json_text(const std::string& text, ParamSource source) {
  JsonCursor cursor{text};
  cursor.expect('{');
  if (cursor.peek() != '}') {
    while (true) {
      const std::string key = cursor.parse_string();
      cursor.expect(':');
      const std::string value = cursor.parse_value();
      set(key, value, source);
      const char c = cursor.peek();
      if (c == '}') break;
      cursor.expect(',');
    }
  }
  cursor.expect('}');
  if (!cursor.at_end()) fail("config JSON: trailing content after object");
}

void ParamSet::apply_json_file(const std::string& path, ParamSource source) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot read config file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  apply_json_text(buffer.str(), source);
}

int ParamSet::apply_env() {
  int applied = 0;
  for (const ParamSpec& spec : schema_) {
    const char* raw = std::getenv(env_name(spec.name).c_str());
    if (raw == nullptr || *raw == '\0') continue;  // empty means unset
    set(spec.name, raw, ParamSource::kEnv);
    ++applied;
  }
  return applied;
}

// ---- typed getters --------------------------------------------------------

std::int64_t ParamSet::get_int(const std::string& name) const {
  const std::size_t index = index_of(name);
  require_type(schema_[index], ParamType::kInt, "get_int");
  std::int64_t value = 0;
  parse_int_token(slots_[index].canonical, value);
  return value;
}

double ParamSet::get_double(const std::string& name) const {
  const std::size_t index = index_of(name);
  require_type(schema_[index], ParamType::kDouble, "get_double");
  double value = 0.0;
  parse_double_token(slots_[index].canonical, value);
  return value;
}

bool ParamSet::get_bool(const std::string& name) const {
  const std::size_t index = index_of(name);
  require_type(schema_[index], ParamType::kBool, "get_bool");
  return slots_[index].canonical == "true";
}

const std::string& ParamSet::get_string(const std::string& name) const {
  const std::size_t index = index_of(name);
  const ParamType type = schema_[index].type;
  if (type != ParamType::kString && type != ParamType::kChoice)
    fail("parameter '" + name + "' is " + to_string(type) +
         ", not readable via get_string");
  return slots_[index].canonical;
}

std::vector<std::int64_t> ParamSet::get_int_list(
    const std::string& name) const {
  const std::size_t index = index_of(name);
  require_type(schema_[index], ParamType::kIntList, "get_int_list");
  std::vector<std::int64_t> values;
  for (const std::string& element : split_list(slots_[index].canonical)) {
    std::int64_t value = 0;
    parse_int_token(element, value);
    values.push_back(value);
  }
  return values;
}

std::vector<double> ParamSet::get_double_list(const std::string& name) const {
  const std::size_t index = index_of(name);
  require_type(schema_[index], ParamType::kDoubleList, "get_double_list");
  std::vector<double> values;
  for (const std::string& element : split_list(slots_[index].canonical)) {
    double value = 0.0;
    parse_double_token(element, value);
    values.push_back(value);
  }
  return values;
}

ParamSource ParamSet::source_of(const std::string& name) const {
  return slots_[index_of(name)].source;
}

std::string ParamSet::canonical_value(const std::string& name) const {
  return slots_[index_of(name)].canonical;
}

std::string ParamSet::canonical() const {
  std::vector<std::size_t> order(schema_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return schema_[a].name < schema_[b].name;
  });
  std::string joined;
  for (std::size_t index : order) {
    if (!joined.empty()) joined += ' ';
    joined += schema_[index].name + "=" + slots_[index].canonical;
  }
  return joined;
}

std::string ParamSet::env_name(const std::string& param_name) {
  std::string name = "FTNAV_";
  for (char c : param_name)
    name += c == '-' ? '_'
                     : static_cast<char>(
                           std::toupper(static_cast<unsigned char>(c)));
  return name;
}

std::vector<std::string> ParamSet::env_names() const {
  std::vector<std::string> names;
  names.reserve(schema_.size());
  for (const ParamSpec& spec : schema_) names.push_back(env_name(spec.name));
  return names;
}

}  // namespace ftnav
