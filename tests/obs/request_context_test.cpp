#include "obs/request_context.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "obs/trace_session.hpp"

namespace mfgpu {
namespace {

struct RecordingGuard {
  RecordingGuard() {
    obs::TraceSession::global().clear();
    obs::enable();
  }
  ~RecordingGuard() {
    obs::disable();
    obs::TraceSession::global().clear();
  }
};

TEST(RequestContextTest, NoBindingMeansNoRequest) {
  EXPECT_EQ(obs::current_request(), nullptr);
  EXPECT_EQ(obs::current_request_id(), 0u);
}

TEST(RequestContextTest, IdMintsAreUniqueAndNonzero) {
  EXPECT_NE(obs::next_request_id(), 0u);
  EXPECT_NE(obs::next_span_id(), 0u);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) ids.insert(obs::next_request_id());
  EXPECT_EQ(ids.size(), 100u);
}

TEST(RequestContextTest, IdMintsAreUniqueAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::vector<std::uint64_t>> minted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&minted, t] {
      minted[static_cast<std::size_t>(t)].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        minted[static_cast<std::size_t>(t)].push_back(obs::next_span_id());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<std::uint64_t> all;
  for (const auto& lane : minted) all.insert(lane.begin(), lane.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(RequestContextTest, ScopeBindsAndNestsAndRestores) {
  obs::RequestContext outer_ctx;
  outer_ctx.request_id = obs::next_request_id();
  obs::RequestContext inner_ctx;
  inner_ctx.request_id = obs::next_request_id();
  {
    obs::RequestScope outer(&outer_ctx);
    EXPECT_EQ(obs::current_request(), &outer_ctx);
    EXPECT_EQ(obs::current_request_id(), outer_ctx.request_id);
    {
      obs::RequestScope inner(&inner_ctx);
      EXPECT_EQ(obs::current_request_id(), inner_ctx.request_id);
      {
        // Binding nullptr detaches temporarily.
        obs::RequestScope detached(nullptr);
        EXPECT_EQ(obs::current_request(), nullptr);
        EXPECT_EQ(obs::current_request_id(), 0u);
      }
      EXPECT_EQ(obs::current_request_id(), inner_ctx.request_id);
    }
    EXPECT_EQ(obs::current_request_id(), outer_ctx.request_id);
  }
  EXPECT_EQ(obs::current_request(), nullptr);
}

TEST(RequestContextTest, ParentFallsBackToBoundRequestRootSpan) {
  obs::RequestContext ctx;
  ctx.request_id = obs::next_request_id();
  ctx.root_span = obs::next_span_id();
  EXPECT_EQ(obs::current_parent_span(), 0u);
  {
    obs::RequestScope scope(&ctx);
    EXPECT_EQ(obs::current_parent_span(), ctx.root_span);
  }
  EXPECT_EQ(obs::current_parent_span(), 0u);
}

TEST(RequestContextTest, ScopedSpansAreStampedAndParentLinked) {
  RecordingGuard guard;
  obs::RequestContext ctx;
  ctx.request_id = obs::next_request_id();
  ctx.root_span = obs::next_span_id();
  {
    obs::RequestScope scope(&ctx);
    obs::ScopedSpan outer("test", "outer");
    ASSERT_TRUE(outer.active());
    EXPECT_EQ(obs::current_parent_span(), outer.id());
    { obs::ScopedSpan inner("test", "inner"); }
  }
  const auto events = obs::TraceSession::global().events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted parent-first: outer precedes inner.
  const auto& outer_ev = events[0];
  const auto& inner_ev = events[1];
  EXPECT_STREQ(outer_ev.name, "outer");
  EXPECT_STREQ(inner_ev.name, "inner");
  EXPECT_EQ(outer_ev.request_id, ctx.request_id);
  EXPECT_EQ(inner_ev.request_id, ctx.request_id);
  EXPECT_NE(outer_ev.span_id, 0u);
  EXPECT_EQ(outer_ev.parent_span, ctx.root_span);
  EXPECT_EQ(inner_ev.parent_span, outer_ev.span_id);
}

TEST(RequestContextTest, SpansOutsideAnyRequestStayUntagged) {
  RecordingGuard guard;
  { obs::ScopedSpan span("test", "free_span"); }
  const auto events = obs::TraceSession::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].request_id, 0u);
  EXPECT_EQ(events[0].parent_span, 0u);
  EXPECT_NE(events[0].span_id, 0u);  // ids are minted regardless
}

TEST(RequestContextTest, RecordSpanStampsExplicitLinks) {
  RecordingGuard guard;
  const std::uint64_t request = obs::next_request_id();
  const std::uint64_t parent = obs::next_span_id();
  const std::uint64_t id =
      obs::record_span("test", "manual", 10, 20, request, parent);
  EXPECT_NE(id, 0u);
  const auto events = obs::TraceSession::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].span_id, id);
  EXPECT_EQ(events[0].parent_span, parent);
  EXPECT_EQ(events[0].request_id, request);
  EXPECT_EQ(events[0].start_ns, 10);
  EXPECT_EQ(events[0].end_ns, 20);
}

TEST(RequestContextTest, RecordSpanIsNoOpWhileDisabled) {
  obs::disable();
  obs::TraceSession::global().clear();
  EXPECT_EQ(obs::record_span("test", "ignored", 0, 1), 0u);
  EXPECT_TRUE(obs::TraceSession::global().events().empty());
}

TEST(RequestContextTest, BindingFollowsThreadsIndependently) {
  obs::RequestContext ctx;
  ctx.request_id = obs::next_request_id();
  obs::RequestScope scope(&ctx);
  std::uint64_t seen_on_thread = 99;
  std::thread worker([&seen_on_thread] {
    // A fresh thread has no binding, whatever the spawner holds.
    seen_on_thread = obs::current_request_id();
  });
  worker.join();
  EXPECT_EQ(seen_on_thread, 0u);
  EXPECT_EQ(obs::current_request_id(), ctx.request_id);
}

}  // namespace
}  // namespace mfgpu
