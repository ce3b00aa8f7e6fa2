#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "common/error.hpp"

namespace alsmf {

namespace {

// Converts all of `raw` with `convert` (the strtol/strtod shape). An empty
// value, trailing text or ERANGE throws, naming the flag and the raw value.
template <typename T, typename Convert>
T parse_number(const std::string& name, const std::string& raw,
               const char* kind, Convert convert) {
  const char* begin = raw.c_str();
  char* end = nullptr;
  errno = 0;
  const T value = convert(begin, &end);
  if (raw.empty() || end != begin + raw.size()) {
    throw Error("--" + name + " expects " + kind + ", got '" + raw + "'");
  }
  if (errno == ERANGE) {
    throw Error("--" + name + " value '" + raw + "' is out of range");
  }
  return value;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      auto eq = body.find('=');
      if (eq != std::string::npos) {
        options_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        options_[body] = argv[++i];
      } else {
        options_[body] = "";  // boolean flag
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

std::optional<std::string> CliArgs::get(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& name,
                            const std::string& def) const {
  auto v = get(name);
  return v ? *v : def;
}

long CliArgs::get_long(const std::string& name, long def) const {
  auto v = get(name);
  if (!v) return def;
  return parse_number<long>(name, *v, "an integer",
                            [](const char* s, char** end) {
                              return std::strtol(s, end, 10);
                            });
}

double CliArgs::get_double(const std::string& name, double def) const {
  auto v = get(name);
  if (!v) return def;
  return parse_number<double>(name, *v, "a number",
                              [](const char* s, char** end) {
                                return std::strtod(s, end);
                              });
}

bool CliArgs::has_flag(const std::string& name) const {
  return options_.count(name) != 0;
}

std::optional<std::string> CliArgs::unknown_flag(
    const std::vector<std::string_view>& accepted) const {
  for (const auto& [name, value] : options_) {
    if (std::find(accepted.begin(), accepted.end(), name) == accepted.end()) {
      return name;
    }
  }
  return std::nullopt;
}

}  // namespace alsmf
