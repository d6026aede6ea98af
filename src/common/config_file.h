// Minimal INI-style configuration reader.
//
// Lets examples and downstream users describe platforms/experiments in a
// text file instead of code:
//
//   # experiment.ini
//   [platform]
//   num_sites = 10
//   workers_per_site = 1
//   capacity_files = 6000
//   uplink_mbps = 2.0
//
//   [workload]
//   num_tasks = 6000
//   file_size_mb = 25
//
// Syntax: `[section]` headers, `key = value` pairs, `#`/`;` comments,
// blank lines ignored. Keys are looked up as "section.key". Values are
// parsed on demand (string / int / double / bool); missing keys either
// throw (get_*) or fall back (get_*_or).
#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <istream>
#include <map>
#include <sstream>
#include <string>

#include "common/check.h"

namespace wcs {

class ConfigFile {
 public:
  ConfigFile() = default;

  static ConfigFile parse(std::istream& in) {
    ConfigFile cfg;
    std::string line;
    std::string section;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      std::string trimmed = trim(strip_comment(line));
      if (trimmed.empty()) continue;
      if (trimmed.front() == '[') {
        WCS_CHECK_MSG(trimmed.back() == ']',
                      "line " << line_no << ": unterminated section header");
        section = trim(trimmed.substr(1, trimmed.size() - 2));
        WCS_CHECK_MSG(!section.empty(),
                      "line " << line_no << ": empty section name");
        continue;
      }
      auto eq = trimmed.find('=');
      WCS_CHECK_MSG(eq != std::string::npos,
                    "line " << line_no << ": expected key = value");
      std::string key = trim(trimmed.substr(0, eq));
      std::string value = trim(trimmed.substr(eq + 1));
      WCS_CHECK_MSG(!key.empty(), "line " << line_no << ": empty key");
      std::string full = section.empty() ? key : section + "." + key;
      WCS_CHECK_MSG(!cfg.values_.count(full),
                    "line " << line_no << ": duplicate key " << full);
      cfg.values_[full] = value;
    }
    return cfg;
  }

  static ConfigFile parse_string(const std::string& text) {
    std::istringstream in(text);
    return parse(in);
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) > 0;
  }

  [[nodiscard]] std::string get_string(const std::string& key) const {
    auto it = values_.find(key);
    WCS_CHECK_MSG(it != values_.end(), "missing config key " << key);
    return it->second;
  }
  [[nodiscard]] std::string get_string_or(const std::string& key,
                                          const std::string& fallback) const {
    return has(key) ? get_string(key) : fallback;
  }

  [[nodiscard]] std::int64_t get_int(const std::string& key) const {
    const std::string v = get_string(key);
    std::size_t pos = 0;
    std::int64_t out = 0;
    try {
      out = std::stoll(v, &pos);
    } catch (const std::exception&) {
      WCS_CHECK_MSG(false, "config key " << key << ": not an integer: " << v);
    }
    WCS_CHECK_MSG(pos == v.size(),
                  "config key " << key << ": trailing junk in " << v);
    return out;
  }
  [[nodiscard]] std::int64_t get_int_or(const std::string& key,
                                        std::int64_t fallback) const {
    return has(key) ? get_int(key) : fallback;
  }

  [[nodiscard]] double get_double(const std::string& key) const {
    const std::string v = get_string(key);
    std::size_t pos = 0;
    double out = 0;
    try {
      out = std::stod(v, &pos);
    } catch (const std::exception&) {
      WCS_CHECK_MSG(false, "config key " << key << ": not a number: " << v);
    }
    WCS_CHECK_MSG(pos == v.size(),
                  "config key " << key << ": trailing junk in " << v);
    // std::stod accepts "nan" and "inf"; no config value means either.
    WCS_CHECK_MSG(std::isfinite(out),
                  "config key " << key << ": not a finite number: " << v);
    return out;
  }
  [[nodiscard]] double get_double_or(const std::string& key,
                                     double fallback) const {
    return has(key) ? get_double(key) : fallback;
  }

  [[nodiscard]] bool get_bool(const std::string& key) const {
    std::string v = get_string(key);
    for (char& c : v) c = static_cast<char>(std::tolower(c));
    if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
    if (v == "false" || v == "0" || v == "no" || v == "off") return false;
    WCS_CHECK_MSG(false, "config key " << key << ": not a boolean: " << v);
    return false;
  }
  [[nodiscard]] bool get_bool_or(const std::string& key, bool fallback) const {
    return has(key) ? get_bool(key) : fallback;
  }

  [[nodiscard]] std::size_t size() const { return values_.size(); }

 private:
  static std::string strip_comment(const std::string& s) {
    auto pos = s.find_first_of("#;");
    return pos == std::string::npos ? s : s.substr(0, pos);
  }
  static std::string trim(const std::string& s) {
    auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos) return {};
    auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
  }

  std::map<std::string, std::string> values_;
};

}  // namespace wcs
