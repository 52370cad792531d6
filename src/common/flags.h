// Minimal command-line flag parser for benches and examples.
//
// Supports `--name=value`, `--name value`, and boolean `--name` forms.
// Numeric getters accept only a whole, finite, in-range value (decimal for
// ints); anything else, e.g. `--eps=banana`, prints
// `flag --eps: 'banana' is not a number` and exits with status 2.
//
//   FlagParser flags(argc, argv);
//   int n = flags.GetInt("n", 64);
//   bool full = flags.GetBool("full", false);
//   std::vector<double> eps = flags.GetDoubleList("eps", {0.5, 1.0});

#ifndef WFM_COMMON_FLAGS_H_
#define WFM_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

namespace wfm {

class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name, const std::string& def) const;
  int GetInt(const std::string& name, int def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;
  /// Comma-separated list of doubles, e.g. --eps=0.5,1,2,4.
  std::vector<double> GetDoubleList(const std::string& name,
                                    const std::vector<double>& def) const;
  /// Comma-separated list of ints, e.g. --domains=8,16,32.
  std::vector<int> GetIntList(const std::string& name,
                              const std::vector<int>& def) const;

  /// Names that were provided but never queried; used to warn on typos.
  std::vector<std::string> UnusedFlags() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
};

/// Prints one warning line to stderr per flag that was provided on the
/// command line but never queried (a misspelled flag would otherwise silently
/// run defaults). Call after the last Get*/Has; returns how many it warned
/// about, so callers can choose to make typos fatal.
int WarnUnusedFlags(const FlagParser& flags);

}  // namespace wfm

#endif  // WFM_COMMON_FLAGS_H_
