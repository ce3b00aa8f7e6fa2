// Tiny command-line option parser used by examples and bench harnesses.
//
// Supports `--name value`, `--name=value`, and boolean `--flag` forms.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace alsmf {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// Returns the value of --name, or nullopt when absent.
  std::optional<std::string> get(const std::string& name) const;

  std::string get_or(const std::string& name, const std::string& def) const;
  /// The value of --name as a number, or `def` when the flag is absent.
  /// Throws Error naming the flag and its value when the value is empty,
  /// does not parse completely, or is out of range.
  long get_long(const std::string& name, long def) const;
  double get_double(const std::string& name, double def) const;
  bool has_flag(const std::string& name) const;

  /// The first given --name (in name order) that is not in `accepted`, or
  /// nullopt when every given flag is accepted.
  std::optional<std::string> unknown_flag(
      const std::vector<std::string_view>& accepted) const;

  /// Positional (non-option) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace alsmf
