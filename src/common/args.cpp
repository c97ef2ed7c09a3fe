/**
 * @file
 * Implementation of the argument parser.
 */

#include "common/args.hpp"

#include <cstdlib>
#include <iomanip>

#include "common/logging.hpp"

namespace dhl {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{}

void
ArgParser::addOption(const std::string &name, const std::string &help,
                     const std::string &default_value)
{
    fatal_if(name.empty(), "option needs a name");
    if (options_.count(name) != 0)
        fatal("duplicate option: --" + name);
    options_.emplace(name, Option{help, default_value, false, false, ""});
}

void
ArgParser::addSwitch(const std::string &name, const std::string &help)
{
    fatal_if(name.empty(), "switch needs a name");
    if (options_.count(name) != 0)
        fatal("duplicate option: --" + name);
    options_.emplace(name, Option{help, "", true, false, ""});
}

void
ArgParser::addPositional(const std::string &name, const std::string &help,
                         bool required)
{
    fatal_if(name.empty(), "positional needs a name");
    positionals_.push_back(Positional{name, help, required, false, ""});
}

bool
ArgParser::parse(int argc, const char *const *argv, std::ostream &out)
{
    std::size_t next_positional = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(out);
            return false;
        }
        if (arg.rfind("--", 0) == 0) {
            std::string name = arg.substr(2);
            std::string inline_value;
            bool has_inline = false;
            const auto eq = name.find('=');
            if (eq != std::string::npos) {
                inline_value = name.substr(eq + 1);
                name = name.substr(0, eq);
                has_inline = true;
            }
            auto it = options_.find(name);
            if (it == options_.end())
                fatal("unknown flag: --" + name);
            Option &opt = it->second;
            opt.provided = true;
            if (opt.is_switch) {
                if (has_inline)
                    fatal("switch --" + name + " takes no value");
                opt.value = "1";
            } else if (has_inline) {
                opt.value = inline_value;
            } else {
                if (i + 1 >= argc)
                    fatal("flag --" + name + " needs a value");
                opt.value = argv[++i];
            }
        } else {
            if (next_positional >= positionals_.size())
                fatal("unexpected positional argument: " + arg);
            positionals_[next_positional].value = arg;
            positionals_[next_positional].provided = true;
            ++next_positional;
        }
    }
    for (const auto &p : positionals_) {
        if (p.required && !p.provided)
            fatal("missing required argument: <" + p.name + ">");
    }
    return true;
}

const ArgParser::Option &
ArgParser::find(const std::string &name) const
{
    auto it = options_.find(name);
    if (it == options_.end())
        fatal("unregistered option: --" + name);
    return it->second;
}

std::string
ArgParser::get(const std::string &name) const
{
    const Option &opt = find(name);
    return opt.provided ? opt.value : opt.default_value;
}

double
ArgParser::getDouble(const std::string &name) const
{
    const std::string v = get(name);
    char *end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0')
        fatal("--" + name + " expects a number, got '" + v + "'");
    return d;
}

long
ArgParser::getInt(const std::string &name) const
{
    const std::string v = get(name);
    char *end = nullptr;
    const long l = std::strtol(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0')
        fatal("--" + name + " expects an integer, got '" + v + "'");
    return l;
}

bool
ArgParser::getSwitch(const std::string &name) const
{
    const Option &opt = find(name);
    if (!opt.is_switch)
        fatal("--" + name + " is not a switch");
    return opt.provided;
}

bool
ArgParser::provided(const std::string &name) const
{
    return find(name).provided;
}

std::string
ArgParser::positional(const std::string &name) const
{
    for (const auto &p : positionals_) {
        if (p.name == name) {
            if (p.required && !p.provided)
                fatal("missing required argument: <" + name + ">");
            return p.value;
        }
    }
    fatal("unregistered positional: " + name);
}

void
ArgParser::printHelp(std::ostream &os) const
{
    os << program_ << " — " << description_ << "\n\nUsage:\n  "
       << program_;
    for (const auto &p : positionals_)
        os << (p.required ? " <" + p.name + ">" : " [" + p.name + "]");
    os << " [flags]\n";
    if (!positionals_.empty()) {
        os << "\nArguments:\n";
        for (const auto &p : positionals_) {
            os << "  " << std::left << std::setw(18) << p.name << " "
               << p.help << "\n";
        }
    }
    if (!options_.empty()) {
        os << "\nFlags:\n";
        for (const auto &[name, opt] : options_) {
            std::string label =
                "--" + name + (opt.is_switch ? "" : " <v>");
            os << "  " << std::left << std::setw(22) << label << " "
               << opt.help;
            if (!opt.is_switch && !opt.default_value.empty())
                os << " (default: " << opt.default_value << ")";
            os << "\n";
        }
    }
    os << "  " << std::left << std::setw(22) << "--help"
       << " show this message\n";
}

} // namespace dhl
