#include "common/config.h"

#include <cctype>
#include <cstdlib>
#include <sstream>

namespace mapg {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

bool KvConfig::parse_text(const std::string& text, std::string* error) {
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      if (error)
        *error = "line " + std::to_string(lineno) + ": missing '=': " + line;
      return false;
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      if (error) *error = "line " + std::to_string(lineno) + ": empty key";
      return false;
    }
    set(key, value);
  }
  return true;
}

std::vector<std::string> KvConfig::parse_args(int argc,
                                              const char* const* argv) {
  std::vector<std::string> leftovers;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      leftovers.push_back(argv[i]);
      continue;
    }
    set(trim(arg.substr(0, eq)), trim(arg.substr(eq + 1)));
  }
  return leftovers;
}

void KvConfig::set(const std::string& key, const std::string& value) {
  kv_[key] = value;
}

bool KvConfig::contains(const std::string& key) const {
  return kv_.count(key) != 0;
}

std::optional<std::string> KvConfig::get(const std::string& key) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

std::string KvConfig::get_or(const std::string& key,
                             const std::string& dflt) const {
  return get(key).value_or(dflt);
}

std::int64_t KvConfig::get_int(const std::string& key,
                               std::int64_t dflt) const {
  auto v = get(key);
  if (!v) return dflt;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 0);
  return (end && *end == '\0' && !v->empty()) ? parsed : dflt;
}

std::uint64_t KvConfig::get_uint(const std::string& key,
                                 std::uint64_t dflt) const {
  auto v = get(key);
  if (!v) return dflt;
  // strtoull negates a leading '-' (so "-1" would be 2^64 - 1); no
  // unsigned literal contains one, so treat it as unparsable.
  if (v->find('-') != std::string::npos) return dflt;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v->c_str(), &end, 0);
  return (end && *end == '\0' && !v->empty()) ? parsed : dflt;
}

double KvConfig::get_double(const std::string& key, double dflt) const {
  auto v = get(key);
  if (!v) return dflt;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  return (end && *end == '\0' && !v->empty()) ? parsed : dflt;
}

bool KvConfig::get_bool(const std::string& key, bool dflt) const {
  auto v = get(key);
  if (!v) return dflt;
  if (*v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  return dflt;
}

}  // namespace mapg
