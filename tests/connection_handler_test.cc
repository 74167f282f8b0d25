// The one session framing of the serving tier: RequestProcessor and the
// router's front handler both inherit it from ConnectionHandler, so the
// same input must be framed the same way by both — one JSON object per
// answered line in input order, error "line" numbers that count skipped
// lines, nothing answered after `shutdown`, and a drain at every batch
// bound (rejects included) without waiting for Flush. The handlers'
// protocols differ; only the framing is compared.

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/obs/metrics.h"
#include "nucleus/serve/request_loop.h"
#include "nucleus/serve/router/router.h"
#include "nucleus/serve/snapshot_registry.h"
#include "nucleus/util/socket.h"

namespace nucleus {
namespace {

constexpr std::int64_t kBound = kRouterBatchBound;

std::int64_t CountLines(const std::string& text) {
  std::int64_t lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  return lines;
}

class SessionFraming : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "RequestProcessor") {
      // An empty registry: every routed line is a structured resolve
      // error, so every answer but `stats` and `shutdown` carries a line.
      ServeOptions options;
      options.batch_size = kBound;
      options.metrics = &metrics_;
      handler_ = std::make_unique<RequestProcessor>(
          MakeRegistryResolver(registry_), &registry_, out_, options);
      return;
    }
    // One backend nobody listens on: it starts down, so every routed
    // line fails fast with a structured error and nothing blocks.
    const StatusOr<TcpListener> closed = ListenTcp("127.0.0.1", 0);
    ASSERT_TRUE(closed.ok());
    ::close(closed->fd);
    TenantRouterOptions options;
    options.backends = {"127.0.0.1:" + std::to_string(closed->port)};
    options.health_interval_ms = 0;
    options.metrics = &metrics_;
    router_ = std::make_unique<TenantRouter>(std::move(options));
    ASSERT_TRUE(router_->Start().ok());
    ASSERT_FALSE(router_->backend_up(0));
    handler_ = router_->HandlerFactory()(out_);
  }

  void TearDown() override {
    handler_.reset();
    if (router_ != nullptr) router_->Stop();
  }

  obs::MetricsRegistry metrics_;
  SnapshotRegistry registry_;
  std::unique_ptr<TenantRouter> router_;
  std::ostringstream out_;
  std::unique_ptr<ConnectionHandler> handler_;  // last: uses the above
};

TEST_P(SessionFraming, SameInputSameFraming) {
  ConnectionHandler& handler = *handler_;
  // Each answered line: its session line number, and whether the answer
  // is an error object (which must then carry that number).
  struct Expected {
    std::int64_t line;
    bool error;
  };
  std::vector<Expected> expected;
  std::int64_t line = 0;

  // Skipped lines are counted but never answered.
  for (const char* skipped : {"", "   ", "# comment", "\t# indented"}) {
    handler.ProcessLine(skipped);
    ++line;
  }
  EXPECT_EQ(out_.str(), "");

  // A burst of transport rejects, three batch bounds long: every bound
  // drains on its own, without a Flush.
  const Status full = Status::OutOfRange("admission queue full");
  for (std::int64_t k = 1; k <= 3 * kBound; ++k) {
    handler.RejectLine(full);
    expected.push_back({++line, true});
    ASSERT_EQ(CountLines(out_.str()), k / kBound * kBound) << "reject " << k;
  }

  // Ordinary traffic, skipped lines interleaved.
  for (const char* text :
       {"t0:lambda 0", "", "frobnicate 1", "# note", "stats", "t1:top 2"}) {
    handler.ProcessLine(text);
    ++line;
    const std::string s = text;
    if (s.empty() || s[0] == '#') continue;
    expected.push_back({line, s != "stats"});
  }
  handler.ProcessLine("shutdown");
  expected.push_back({++line, false});
  EXPECT_TRUE(handler.shutdown_requested());

  // After the acknowledged shutdown nothing is answered.
  handler.ProcessLine("t0:lambda 1");
  handler.RejectLine(full);
  handler.ProcessLine("stats");
  handler.Finish();

  std::vector<std::string> lines;
  std::istringstream stream(out_.str());
  for (std::string text; std::getline(stream, text);) lines.push_back(text);
  ASSERT_EQ(lines.size(), expected.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    SCOPED_TRACE(lines[i]);
    ASSERT_FALSE(lines[i].empty());
    EXPECT_EQ(lines[i].front(), '{');
    EXPECT_EQ(lines[i].back(), '}');
    const std::string tail =
        ", \"line\": " + std::to_string(expected[i].line) + "}";
    if (expected[i].error) {
      EXPECT_EQ(lines[i].rfind("{\"error\": ", 0), 0u);
      ASSERT_GE(lines[i].size(), tail.size());
      EXPECT_EQ(lines[i].substr(lines[i].size() - tail.size()), tail);
    } else {
      EXPECT_EQ(lines[i].find("\"error\""), std::string::npos);
    }
  }
  EXPECT_NE(lines[0].find("admission queue full"), std::string::npos);
  EXPECT_EQ(lines.back(), "{\"query\": \"shutdown\", \"ok\": true}");
}

INSTANTIATE_TEST_SUITE_P(Handlers, SessionFraming,
                         ::testing::Values("RequestProcessor",
                                           "RouterHandler"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace nucleus
