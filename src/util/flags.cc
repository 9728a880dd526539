#include "src/util/flags.h"

#include <cstdio>
#include <sstream>

#include "src/util/check.h"

namespace crius {

FlagSet::FlagSet(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void FlagSet::String(const std::string& name, std::string* target, const std::string& help) {
  CRIUS_CHECK(target != nullptr);
  CRIUS_CHECK_MSG(Find(name) == nullptr, "duplicate flag --" << name);
  flags_.push_back(Flag{name, Kind::kString, target, help, *target});
}

void FlagSet::Int(const std::string& name, int64_t* target, const std::string& help) {
  CRIUS_CHECK(target != nullptr);
  CRIUS_CHECK_MSG(Find(name) == nullptr, "duplicate flag --" << name);
  flags_.push_back(Flag{name, Kind::kInt, target, help, std::to_string(*target)});
}

void FlagSet::Double(const std::string& name, double* target, const std::string& help) {
  CRIUS_CHECK(target != nullptr);
  CRIUS_CHECK_MSG(Find(name) == nullptr, "duplicate flag --" << name);
  std::ostringstream oss;
  oss << *target;
  flags_.push_back(Flag{name, Kind::kDouble, target, help, oss.str()});
}

void FlagSet::Bool(const std::string& name, bool* target, const std::string& help) {
  CRIUS_CHECK(target != nullptr);
  CRIUS_CHECK_MSG(Find(name) == nullptr, "duplicate flag --" << name);
  flags_.push_back(Flag{name, Kind::kBool, target, help, *target ? "true" : "false"});
}

FlagSet::Flag* FlagSet::Find(const std::string& name) {
  for (Flag& flag : flags_) {
    if (flag.name == name) {
      return &flag;
    }
  }
  return nullptr;
}

bool FlagSet::Assign(Flag& flag, const std::string& value) {
  try {
    switch (flag.kind) {
      case Kind::kString:
        *static_cast<std::string*>(flag.target) = value;
        return true;
      case Kind::kInt: {
        size_t pos = 0;
        const int64_t v = std::stoll(value, &pos);
        if (pos != value.size()) {
          return false;
        }
        *static_cast<int64_t*>(flag.target) = v;
        return true;
      }
      case Kind::kDouble: {
        size_t pos = 0;
        const double v = std::stod(value, &pos);
        if (pos != value.size()) {
          return false;
        }
        *static_cast<double*>(flag.target) = v;
        return true;
      }
      case Kind::kBool:
        if (value == "true" || value == "1") {
          *static_cast<bool*>(flag.target) = true;
          return true;
        }
        if (value == "false" || value == "0") {
          *static_cast<bool*>(flag.target) = false;
          return true;
        }
        return false;
    }
  } catch (const std::exception&) {
    return false;
  }
  return false;
}

bool FlagSet::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n%s", program_.c_str(), arg.c_str(),
                   Usage().c_str());
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    Flag* flag = Find(arg);
    if (flag == nullptr) {
      std::fprintf(stderr, "%s: unknown flag --%s\n%s", program_.c_str(), arg.c_str(),
                   Usage().c_str());
      return false;
    }
    if (!has_value) {
      if (flag->kind == Kind::kBool) {
        value = "true";  // bare --flag enables
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "%s: flag --%s needs a value\n", program_.c_str(), arg.c_str());
        return false;
      }
    }
    if (!Assign(*flag, value)) {
      std::fprintf(stderr, "%s: bad value '%s' for --%s\n", program_.c_str(), value.c_str(),
                   arg.c_str());
      return false;
    }
  }
  return true;
}

std::string FlagSet::Usage() const {
  std::ostringstream oss;
  oss << program_ << " -- " << description_ << "\n\nFlags:\n";
  for (const Flag& flag : flags_) {
    oss << "  --" << flag.name;
    oss << "  (default: " << flag.default_value << ")\n";
    oss << "      " << flag.help << "\n";
  }
  return oss.str();
}

}  // namespace crius
