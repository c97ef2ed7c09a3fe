/**
 * @file
 * Implementation of the properties format.
 */

#include "common/properties.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hpp"

namespace dhl {

namespace {

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

} // namespace

Properties
Properties::fromString(const std::string &text)
{
    Properties props;
    std::istringstream is(text);
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal("properties line " + std::to_string(line_no) +
                  " has no '=': " + line);
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            fatal("properties line " + std::to_string(line_no) +
                  " has an empty key");
        props.set(key, value);
    }
    return props;
}

Properties
Properties::fromFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        fatal("cannot open properties file: " + path);
    std::ostringstream buf;
    buf << file.rdbuf();
    return fromString(buf.str());
}

bool
Properties::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
Properties::get(const std::string &key, const std::string &fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

double
Properties::getDouble(const std::string &key, double fallback) const
{
    if (!has(key))
        return fallback;
    const std::string v = get(key);
    char *end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0')
        fatal("property '" + key + "' expects a number, got '" + v + "'");
    // strtod also accepts nan and inf, and overflows such as 1e400 to
    // inf; no property means any of them.
    if (!std::isfinite(d)) {
        fatal("property '" + key + "' expects a finite number, got '" + v +
              "'");
    }
    return d;
}

long
Properties::getInt(const std::string &key, long fallback) const
{
    if (!has(key))
        return fallback;
    const std::string v = get(key);
    char *end = nullptr;
    errno = 0;
    const long l = std::strtol(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0')
        fatal("property '" + key + "' expects an integer, got '" + v + "'");
    // strtol clamps an out-of-range value to LONG_MIN/LONG_MAX.
    if (errno == ERANGE)
        fatal("property '" + key + "' is out of range, got '" + v + "'");
    return l;
}

bool
Properties::getBool(const std::string &key, bool fallback) const
{
    if (!has(key))
        return fallback;
    const std::string v = get(key);
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("property '" + key + "' expects a boolean, got '" + v + "'");
}

void
Properties::set(const std::string &key, const std::string &value)
{
    fatal_if(key.empty(), "property key must not be empty");
    if (values_.count(key) == 0)
        order_.push_back(key);
    values_[key] = value;
}

void
Properties::setDouble(const std::string &key, double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    set(key, os.str());
}

void
Properties::setInt(const std::string &key, long value)
{
    set(key, std::to_string(value));
}

void
Properties::setBool(const std::string &key, bool value)
{
    set(key, value ? "true" : "false");
}

std::string
Properties::toString() const
{
    std::ostringstream os;
    for (const auto &key : order_)
        os << key << " = " << values_.at(key) << "\n";
    return os.str();
}

} // namespace dhl
