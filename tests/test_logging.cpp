/**
 * @file
 * Unit tests for the logging / error primitives, including the rule
 * that fatal_if / panic_if take only literal (`const char *`) messages,
 * and two call sites whose runtime-built messages moved to plain
 * `if (cond) panic(...)` / `fatal(...)` branches.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "dhl/cart.hpp"
#include "dhl/config.hpp"
#include "sim/snapshot.hpp"

using namespace dhl;

namespace {

/** RAII capture of the global logger's sink and level. */
class SinkCapture
{
  public:
    SinkCapture(LogLevel level)
    {
        prev_level_ = Logger::global().setLevel(level);
        prev_sink_ = Logger::global().setSink(
            [this](LogLevel lvl, const std::string &msg) {
                entries_.push_back({lvl, msg});
            });
    }

    ~SinkCapture()
    {
        Logger::global().setSink(prev_sink_);
        Logger::global().setLevel(prev_level_);
    }

    const std::vector<std::pair<LogLevel, std::string>> &
    entries() const
    {
        return entries_;
    }

  private:
    std::vector<std::pair<LogLevel, std::string>> entries_;
    Logger::Sink prev_sink_;
    LogLevel prev_level_;
};

// A guard evaluates its message on every call, so only messages that
// cost nothing to pass are accepted.  A message built at runtime must be
// written `if (cond) fatal(msg);` instead.
template <typename Msg>
constexpr bool kFatalIfTakes = requires(Msg msg) { fatal_if(true, msg); };
template <typename Msg>
constexpr bool kPanicIfTakes = requires(Msg msg) { panic_if(true, msg); };

static_assert(kFatalIfTakes<const char *>);
static_assert(kPanicIfTakes<const char *>);
static_assert(!kFatalIfTakes<std::string>);
static_assert(!kPanicIfTakes<std::string>);
static_assert(!kFatalIfTakes<const std::string &>);
static_assert(!kPanicIfTakes<const std::string &>);

} // namespace

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
    try {
        fatal("bad config");
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad config");
    }
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("invariant broken"), PanicError);
}

TEST(Logging, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatal_if(false, "nope"));
    EXPECT_THROW(fatal_if(true, "yep"), FatalError);
    EXPECT_NO_THROW(panic_if(false, "nope"));
    EXPECT_THROW(panic_if(true, "yep"), PanicError);
}

TEST(Logging, WarnPassesLevelFilter)
{
    SinkCapture cap(LogLevel::Warn);
    warn("w1");
    inform("i1"); // filtered out at Warn level
    ASSERT_EQ(cap.entries().size(), 1u);
    EXPECT_EQ(cap.entries()[0].second, "w1");
    EXPECT_EQ(cap.entries()[0].first, LogLevel::Warn);
}

TEST(Logging, InformVisibleAtInformLevel)
{
    SinkCapture cap(LogLevel::Inform);
    warn("w");
    inform("i");
    debugLog("d"); // filtered
    ASSERT_EQ(cap.entries().size(), 2u);
    EXPECT_EQ(cap.entries()[1].second, "i");
}

TEST(Logging, SilentSuppressesEverything)
{
    SinkCapture cap(LogLevel::Silent);
    warn("w");
    inform("i");
    debugLog("d");
    EXPECT_TRUE(cap.entries().empty());
}

TEST(Logging, DebugVisibleAtDebugLevel)
{
    SinkCapture cap(LogLevel::Debug);
    debugLog("d");
    ASSERT_EQ(cap.entries().size(), 1u);
    EXPECT_EQ(cap.entries()[0].first, LogLevel::Debug);
}

TEST(Logging, SetSinkReturnsPrevious)
{
    auto prev = Logger::global().setSink(nullptr);
    // Logging with a null sink must not crash.
    Logger::global().setLevel(LogLevel::Warn);
    EXPECT_NO_THROW(warn("into the void"));
    Logger::global().setSink(prev);
}

TEST(Logging, IllegalCartTransitionNamesCartAndState)
{
    const core::DhlConfig cfg = core::defaultConfig();
    core::Cart cart(7, cfg);
    cart.beginUndock();
    try {
        cart.beginUndock();
        FAIL() << "second undock accepted";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "cart 7 cannot undock from state undocking");
    }
}

TEST(Logging, BadSnapshotIntegerNamesTheFullScopedKey)
{
    std::istringstream in("dhl-snapshot 1\nserve.s0.samples = 12x\n");
    sim::SnapshotReader r(in);
    sim::SnapshotScope<sim::SnapshotReader> serve(r, "serve");
    sim::SnapshotScope<sim::SnapshotReader> stage(r, "s0");
    try {
        r.getU64("samples");
        FAIL() << "bad integer accepted";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(),
                     "snapshot: bad integer for 'serve.s0.samples': '12x'");
    }
    // The failed lookup leaves the reader's scope intact.
    EXPECT_TRUE(r.has("samples"));
}
