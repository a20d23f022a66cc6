#include "util/flags.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace compass::util {

namespace {

std::string format_real(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

Flag row(std::string name, Flag::Kind kind, std::string help,
         std::string metavar, std::string default_text) {
  Flag f;
  f.name = std::move(name);
  f.kind = kind;
  f.help = std::move(help);
  f.metavar = std::move(metavar);
  f.default_text = std::move(default_text);
  return f;
}

}  // namespace

Flag Flag::text(std::string name, std::string& dest, std::string metavar,
                std::string help) {
  Flag f = row(std::move(name), Kind::kString, std::move(help),
               std::move(metavar), dest);
  f.dest = &dest;
  return f;
}

Flag Flag::u64(std::string name, std::uint64_t& dest, std::uint64_t min,
               std::uint64_t max, std::string help) {
  Flag f = row(std::move(name), Kind::kU64, std::move(help), "N",
               std::to_string(dest));
  f.dest = &dest;
  f.min = min;
  f.max = max;
  return f;
}

Flag Flag::u64(std::string name, int& dest, std::uint64_t min,
               std::uint64_t max, std::string help) {
  Flag f = row(std::move(name), Kind::kU64, std::move(help), "N",
               std::to_string(dest));
  f.dest = &dest;
  f.min = min;
  f.max = std::min<std::uint64_t>(max, INT_MAX);
  return f;
}

Flag Flag::real(std::string name, double& dest, double min, std::string help) {
  Flag f = row(std::move(name), Kind::kDouble, std::move(help), "X",
               format_real(dest));
  f.dest = &dest;
  f.min_real = min;
  return f;
}

Flag Flag::toggle(std::string name, bool& dest, std::string help) {
  Flag f = row(std::move(name), Kind::kSwitch, std::move(help), "", "");
  f.dest = &dest;
  return f;
}

Flag Flag::choice(std::string name, std::string& dest,
                  std::vector<std::string> choices, std::string help) {
  Flag f = row(std::move(name), Kind::kChoice, std::move(help),
               join(choices, "|"), dest);
  f.dest = &dest;
  f.choices = std::move(choices);
  return f;
}

Flags::Flags(std::string program, std::string synopsis, std::vector<Flag> rows)
    : program_(std::move(program)),
      synopsis_(std::move(synopsis)),
      rows_(std::move(rows)) {}

Flags& Flags::add(std::vector<Flag> rows) {
  for (Flag& r : rows) rows_.push_back(std::move(r));
  return *this;
}

Flags& Flags::positionals(std::vector<std::string>& dest, std::size_t max) {
  positionals_ = &dest;
  max_positionals_ = max;
  return *this;
}

bool Flags::assign(const Flag& row, const std::string& value) {
  const std::string& n = row.name;
  if (value.empty()) {
    error_ = n + " requires a value, got ''";
    return false;
  }
  switch (row.kind) {
    case Flag::Kind::kString:
      *std::get<std::string*>(row.dest) = value;
      return true;
    case Flag::Kind::kChoice:
      if (std::find(row.choices.begin(), row.choices.end(), value) ==
          row.choices.end()) {
        error_ = n + " must be one of " + row.metavar + ", got '" + value + "'";
        return false;
      }
      *std::get<std::string*>(row.dest) = value;
      return true;
    case Flag::Kind::kU64: {
      std::uint64_t v = 0;
      for (const char c : value) {
        if (c < '0' || c > '9') {
          error_ = n + " requires a non-negative integer, got '" + value + "'";
          return false;
        }
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (v > (UINT64_MAX - digit) / 10) {
          error_ = n + " value '" + value + "' is out of range";
          return false;
        }
        v = v * 10 + digit;
      }
      if (v < row.min || v > row.max) {
        error_ = n + " must be in [" + std::to_string(row.min) + ", " +
                 std::to_string(row.max) + "], got " + std::to_string(v);
        return false;
      }
      if (int* const* p = std::get_if<int*>(&row.dest)) {
        **p = static_cast<int>(v);
      } else {
        *std::get<std::uint64_t*>(row.dest) = v;
      }
      return true;
    }
    case Flag::Kind::kDouble: {
      // strtod alone would skip leading blanks, stop at trailing junk
      // ("20abc" -> 20), and accept "nan"/"inf" — all rejected here.
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (std::isspace(static_cast<unsigned char>(value[0])) ||
          *end != '\0' || !std::isfinite(v)) {
        error_ = n + " requires a finite number, got '" + value + "'";
        return false;
      }
      if (v < row.min_real) {
        error_ = n + " must be >= " + format_real(row.min_real) + ", got " +
                 value;
        return false;
      }
      *std::get<double*>(row.dest) = v;
      return true;
    }
    case Flag::Kind::kSwitch:
      break;
  }
  error_ = n + " takes no value";
  return false;
}

Flags::Result Flags::parse(int argc, const char* const* argv, int first) {
  error_.clear();
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Result::kHelp;
    if (!arg.empty() && arg[0] != '-') {
      if (positionals_ == nullptr || positionals_->size() >= max_positionals_) {
        error_ = "unexpected argument '" + arg + "'";
        return Result::kError;
      }
      positionals_->push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto row = std::find_if(
        rows_.begin(), rows_.end(),
        [&](const Flag& r) { return r.name == name; });
    if (row == rows_.end()) {
      error_ = "unknown option " + arg;
      return Result::kError;
    }
    if (row->kind == Flag::Kind::kSwitch) {
      if (eq != std::string::npos) {
        error_ = name + " takes no value";
        return Result::kError;
      }
      *std::get<bool*>(row->dest) = true;
      continue;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      error_ = name + " requires a value";
      return Result::kError;
    }
    if (!assign(*row, value)) return Result::kError;
  }
  return Result::kOk;
}

void Flags::usage(std::ostream& os) const {
  os << synopsis_;
  if (rows_.empty()) return;
  // Help text starts at a fixed column; a longer name + metavar puts its
  // help on the next line.
  constexpr std::size_t kColumn = 26;
  os << "options:\n";
  for (const Flag& r : rows_) {
    std::string line = "  " + r.name;
    if (!r.metavar.empty()) line += " " + r.metavar;
    if (line.size() + 2 > kColumn) {
      os << line << "\n";
      line.clear();
    }
    line.resize(kColumn, ' ');
    os << line << r.help;
    if (!r.default_text.empty()) os << " (default " << r.default_text << ")";
    os << "\n";
  }
}

void Flags::parse_or_exit(int argc, const char* const* argv, int first) {
  switch (parse(argc, argv, first)) {
    case Result::kOk:
      return;
    case Result::kHelp:
      usage(std::cout);
      std::exit(0);
    case Result::kError:
      std::cerr << program_ << ": " << error_ << "\n";
      usage(std::cerr);
      std::exit(1);
  }
}

}  // namespace compass::util
