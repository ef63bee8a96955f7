#include "celect/util/flags.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "celect/util/text.h"

namespace celect {

namespace {
[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "flag error: %s\n", msg.c_str());
  // Flags are parsed once on the main thread before any pool spins up.
  std::exit(2);  // NOLINT(concurrency-mt-unsafe)
}
}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  program_name_ = argc > 0 ? argv[0] : "program";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body == "help") {
      help_requested_ = true;
      continue;
    }
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      // Bare flag: treated as boolean true.
      values_[body] = "true";
    }
  }
}

std::optional<std::string> Flags::Raw(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback,
                             const std::string& help) {
  help_entries_.push_back({name, fallback, help});
  return Raw(name).value_or(fallback);
}

std::int64_t Flags::GetInt(const std::string& name, std::int64_t fallback,
                           const std::string& help) {
  help_entries_.push_back({name, std::to_string(fallback), help});
  auto raw = Raw(name);
  if (!raw) return fallback;
  const auto v = ParseNumber<std::int64_t>(*raw);
  if (!v) Die("--" + name + " expects an integer, got '" + *raw + "'");
  return *v;
}

double Flags::GetDouble(const std::string& name, double fallback,
                        const std::string& help) {
  help_entries_.push_back({name, std::to_string(fallback), help});
  auto raw = Raw(name);
  if (!raw) return fallback;
  char* end = nullptr;
  double v = std::strtod(raw->c_str(), &end);
  if (end == raw->c_str() || *end != '\0') {
    Die("--" + name + " expects a number, got '" + *raw + "'");
  }
  return v;
}

bool Flags::GetBool(const std::string& name, bool fallback,
                    const std::string& help) {
  help_entries_.push_back({name, fallback ? "true" : "false", help});
  auto raw = Raw(name);
  if (!raw) return fallback;
  if (*raw == "true" || *raw == "1" || *raw == "yes") return true;
  if (*raw == "false" || *raw == "0" || *raw == "no") return false;
  Die("--" + name + " expects a boolean, got '" + *raw + "'");
}

std::string Flags::HelpText() const {
  std::ostringstream os;
  os << "usage: " << program_name_ << " [flags]\n";
  for (const auto& e : help_entries_) {
    os << "  --" << e.name << " (default: " << e.fallback << ")\n      "
       << e.help << "\n";
  }
  return os.str();
}

}  // namespace celect
