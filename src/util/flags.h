// Declarative command-line flags for every driver (tools/ and bench/).
//
// A driver lists its flags as rows: a name, a value kind, help text, and
// the variable the value lands in. One parse() then reads the whole argv:
// `--name value` and `--name=value` both work, and the parser rejects
// unknown flags, missing or empty values, numbers with trailing junk,
// out-of-range or overflowing integers, NaN and infinities, and extra
// positional arguments. usage() is generated from the same rows, so the
// help text cannot drift from what the parser accepts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace compass::util {

/// One row of a flag table. Build rows with the factory functions; each
/// records the destination's current value as the default usage() prints.
/// A row points at its destination, which must outlive the row.
struct Flag {
  enum class Kind : std::uint8_t { kString, kU64, kDouble, kSwitch, kChoice };

  std::string name;  // "--trace-out"
  Kind kind = Kind::kString;
  std::string help;
  std::string metavar;       // value placeholder in usage ("F", "N", "a|b")
  std::string default_text;  // "" = no default shown
  std::variant<std::string*, std::uint64_t*, int*, double*, bool*> dest;
  std::uint64_t min = 0;           // kU64: inclusive range
  std::uint64_t max = UINT64_MAX;
  double min_real = 0.0;           // kDouble: inclusive lower bound
  std::vector<std::string> choices;  // kChoice: the accepted values

  /// Any string (not empty).
  static Flag text(std::string name, std::string& dest, std::string metavar,
                   std::string help);
  /// A decimal integer in [min, max]. The int overload needs max <= INT_MAX.
  static Flag u64(std::string name, std::uint64_t& dest, std::uint64_t min,
                  std::uint64_t max, std::string help);
  static Flag u64(std::string name, int& dest, std::uint64_t min,
                  std::uint64_t max, std::string help);
  /// A finite number >= min.
  static Flag real(std::string name, double& dest, double min,
                   std::string help);
  /// A switch: present sets dest to true; takes no value.
  static Flag toggle(std::string name, bool& dest, std::string help);
  /// One of a fixed set of strings.
  static Flag choice(std::string name, std::string& dest,
                     std::vector<std::string> choices, std::string help);
};

class Flags {
 public:
  /// `program` prefixes error messages; `synopsis` is printed by usage()
  /// above the generated option list.
  Flags(std::string program, std::string synopsis,
        std::vector<Flag> rows = {});

  Flags& add(std::vector<Flag> rows);
  /// Accept up to `max` bare (non-flag) arguments, appended to `dest`. A
  /// table without this accepts none.
  Flags& positionals(std::vector<std::string>& dest, std::size_t max);

  enum class Result : std::uint8_t { kOk, kHelp, kError };
  /// Parse argv[first, argc). `--help` / `-h` yields kHelp; any rejected
  /// argument yields kError with the reason in error(). Repeated flags:
  /// the last one wins.
  Result parse(int argc, const char* const* argv, int first = 1);
  const std::string& error() const { return error_; }

  void usage(std::ostream& os) const;

  /// parse(), and on anything but kOk exit the process: 0 after usage on
  /// stdout for --help, 1 after "program: error" and usage on stderr.
  void parse_or_exit(int argc, const char* const* argv, int first = 1);

 private:
  bool assign(const Flag& row, const std::string& value);

  std::string program_;
  std::string synopsis_;
  std::vector<Flag> rows_;
  std::vector<std::string>* positionals_ = nullptr;
  std::size_t max_positionals_ = 0;
  std::string error_;
};

}  // namespace compass::util
