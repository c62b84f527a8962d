#include "utils/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "utils/error.hpp"

namespace fedclust {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help) {
  FEDCLUST_REQUIRE(!specs_.count(name), "duplicate flag --" << name);
  specs_[name] = {Kind::kInt, help, std::to_string(default_value)};
  ints_[name] = default_value;
}

void CliParser::add_double(const std::string& name, double default_value,
                           const std::string& help) {
  FEDCLUST_REQUIRE(!specs_.count(name), "duplicate flag --" << name);
  std::ostringstream oss;
  oss << default_value;
  specs_[name] = {Kind::kDouble, help, oss.str()};
  doubles_[name] = default_value;
}

void CliParser::add_string(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  FEDCLUST_REQUIRE(!specs_.count(name), "duplicate flag --" << name);
  specs_[name] = {Kind::kString, help, default_value};
  strings_[name] = default_value;
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  FEDCLUST_REQUIRE(!specs_.count(name), "duplicate flag --" << name);
  specs_[name] = {Kind::kFlag, help, "false"};
  flags_[name] = false;
}

void CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    FEDCLUST_CHECK(arg.rfind("--", 0) == 0,
                   "expected --flag, got '" << arg << "'");
    arg = arg.substr(2);
    if (arg == "help") {
      std::cout << usage();
      std::exit(0);
    }
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = specs_.find(arg);
    FEDCLUST_CHECK(it != specs_.end(), "unknown flag --" << arg);
    if (it->second.kind == Kind::kFlag) {
      FEDCLUST_CHECK(!has_value, "flag --" << arg << " takes no value");
      flags_[arg] = true;
      continue;
    }
    if (!has_value) {
      FEDCLUST_CHECK(i + 1 < argc, "flag --" << arg << " needs a value");
      value = argv[++i];
    }
    try {
      switch (it->second.kind) {
        case Kind::kInt:
          ints_[arg] = std::stoll(value);
          break;
        case Kind::kDouble:
          doubles_[arg] = std::stod(value);
          break;
        case Kind::kString:
          strings_[arg] = value;
          break;
        case Kind::kFlag:
          break;  // handled above
      }
    } catch (const std::exception&) {
      FEDCLUST_FAIL("bad value '" << value << "' for --" << arg);
    }
  }
}

const CliParser::Spec& CliParser::spec_or_throw(const std::string& name,
                                                Kind kind) const {
  const auto it = specs_.find(name);
  FEDCLUST_CHECK(it != specs_.end(), "flag --" << name << " was never added");
  FEDCLUST_CHECK(it->second.kind == kind,
                 "flag --" << name << " accessed with the wrong type");
  return it->second;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  spec_or_throw(name, Kind::kInt);
  return ints_.at(name);
}

double CliParser::get_double(const std::string& name) const {
  spec_or_throw(name, Kind::kDouble);
  return doubles_.at(name);
}

const std::string& CliParser::get_string(const std::string& name) const {
  spec_or_throw(name, Kind::kString);
  return strings_.at(name);
}

bool CliParser::get_flag(const std::string& name) const {
  spec_or_throw(name, Kind::kFlag);
  return flags_.at(name);
}

std::string CliParser::usage() const {
  std::ostringstream oss;
  oss << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& [name, spec] : specs_) {
    oss << "  --" << name;
    if (spec.kind != Kind::kFlag) oss << " <value>";
    oss << "  (default: " << spec.default_text << ")\n      " << spec.help
        << "\n";
  }
  oss << "  --help\n      print this message and exit\n";
  return oss.str();
}

}  // namespace fedclust
