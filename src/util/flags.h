// Minimal command-line flag parsing for the CLI tools.
//
//   FlagSet flags("crius_sim", "Run a cluster-scheduling simulation");
//   std::string sched = "crius";
//   flags.String("scheduler", &sched, "crius|fcfs|gandiva|gavel|elasticflow");
//   if (!flags.Parse(argc, argv)) { return 1; }   // prints --help / errors
//
// Supports --name value and --name=value forms, bool flags as --name /
// --name=false, and a generated --help.

#ifndef SRC_UTIL_FLAGS_H_
#define SRC_UTIL_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace crius {

class FlagSet {
 public:
  FlagSet(std::string program, std::string description);

  // Registers a flag bound to `target` (which holds the default value).
  void String(const std::string& name, std::string* target, const std::string& help);
  void Int(const std::string& name, int64_t* target, const std::string& help);
  void Double(const std::string& name, double* target, const std::string& help);
  void Bool(const std::string& name, bool* target, const std::string& help);

  // Parses argv. Returns false (after printing a message) on --help, on any
  // unknown flag / malformed value, and on any positional argument: no
  // program takes one, so a stray word is an error rather than ignored.
  bool Parse(int argc, const char* const* argv);

  // Renders the --help text.
  std::string Usage() const;

 private:
  enum class Kind { kString, kInt, kDouble, kBool };
  struct Flag {
    std::string name;
    Kind kind;
    void* target;
    std::string help;
    std::string default_value;
  };

  Flag* Find(const std::string& name);
  bool Assign(Flag& flag, const std::string& value);

  std::string program_;
  std::string description_;
  std::vector<Flag> flags_;
};

}  // namespace crius

#endif  // SRC_UTIL_FLAGS_H_
