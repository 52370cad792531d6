#include "common/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <system_error>

#include "common/check.h"

namespace wfm {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

/// Parses all of `text` as a finite T, or prints why it is not one and
/// exits with status 2: a bad value must never reach the program as 0.
template <typename T>
T ParseNumberOrExit(const std::string& name, const std::string& text) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  const char* problem = nullptr;
  if (ec == std::errc::result_out_of_range) {
    problem = "is out of range";
  } else if (ec != std::errc() || ptr != last) {
    problem = "is not a number";
  } else if (!std::isfinite(static_cast<double>(value))) {
    problem = "is not a finite number";
  }
  if (problem != nullptr) {
    std::fprintf(stderr, "flag --%s: '%s' %s\n", name.c_str(), text.c_str(),
                 problem);
    std::exit(2);
  }
  return value;
}

/// Comma-separated list of T; empty items are skipped.
template <typename T>
std::vector<T> ParseListOrExit(const std::string& name,
                               const std::string& text) {
  std::vector<T> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(ParseNumberOrExit<T>(name, item));
  }
  return out;
}

}  // namespace

FlagParser::FlagParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) continue;
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[arg] = argv[i + 1];
      ++i;
    } else {
      values_[arg] = "true";  // Bare boolean flag.
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& def) const {
  queried_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

int FlagParser::GetInt(const std::string& name, int def) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return ParseNumberOrExit<int>(name, it->second);
}

double FlagParser::GetDouble(const std::string& name, double def) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return ParseNumberOrExit<double>(name, it->second);
}

bool FlagParser::GetBool(const std::string& name, bool def) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::vector<double> FlagParser::GetDoubleList(
    const std::string& name, const std::vector<double>& def) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return ParseListOrExit<double>(name, it->second);
}

std::vector<int> FlagParser::GetIntList(const std::string& name,
                                        const std::vector<int>& def) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return ParseListOrExit<int>(name, it->second);
}

std::vector<std::string> FlagParser::UnusedFlags() const {
  std::vector<std::string> unused;
  for (const auto& [name, _] : values_) {
    if (queried_.count(name) == 0) unused.push_back(name);
  }
  return unused;
}

int WarnUnusedFlags(const FlagParser& flags) {
  const std::vector<std::string> unused = flags.UnusedFlags();
  for (const std::string& name : unused) {
    std::fprintf(stderr,
                 "warning: flag --%s is not recognized by this program and "
                 "was ignored (typo?)\n",
                 name.c_str());
  }
  return static_cast<int>(unused.size());
}

}  // namespace wfm
