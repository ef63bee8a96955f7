// Scripted-context unit tests for the application layer: message
// dispatch between app and inner election, and the exact app rounds.
#include <gtest/gtest.h>

#include "celect/apps/global_function.h"
#include "celect/apps/spanning_tree.h"
#include "mock_context.h"

namespace celect::apps {
namespace {

using sim::Id;
using sim::Port;
using test::MockContext;
using wire::Packet;

// Minimal inner election: declares leader as soon as it wakes; records
// the protocol traffic it sees.
class InstantWinner : public sim::Process {
 public:
  void OnWakeup(sim::Context& ctx) override { ctx.DeclareLeader(); }
  void OnMessage(sim::Context&, Port, const wire::Packet& p) override {
    seen.push_back(p.type);
  }
  std::vector<std::uint16_t> seen;
};

// Records the crash hints and revivals the wrapper hands down; a
// revived node declares at once, so the wrapper's interception shows.
class HookRecorder : public sim::Process {
 public:
  void OnWakeup(sim::Context&) override {}
  void OnMessage(sim::Context&, Port, const wire::Packet&) override {}
  void OnPeerSuspected(sim::Context&, Port port) override {
    suspected.push_back(port);
  }
  void OnRejoin(sim::Context& ctx) override {
    ++rejoins;
    ctx.DeclareLeader();
  }
  std::vector<Port> suspected;
  int rejoins = 0;
};

TEST(AppBaseUnit, CrashHintsAndRejoinsReachTheInnerProcess) {
  auto inner = std::make_unique<HookRecorder>();
  auto* inner_view = inner.get();
  SpanningTreeProcess app(std::move(inner));
  MockContext ctx(1, 2, 8);
  app.OnPeerSuspected(ctx, 3);
  app.OnPeerSuspected(ctx, 5);
  EXPECT_EQ(inner_view->suspected, (std::vector<Port>{3, 5}));
  app.OnRejoin(ctx);
  EXPECT_EQ(inner_view->rejoins, 1);
  EXPECT_EQ(ctx.leader_declarations(), 1u);
  EXPECT_TRUE(app.leader_here());
}

TEST(AppBaseUnit, ProtocolTrafficPassesThroughToInner) {
  auto inner = std::make_unique<InstantWinner>();
  auto* inner_view = inner.get();
  SpanningTreeProcess app(std::move(inner));
  MockContext ctx(1, 2, 8);
  // A low-typed packet is election traffic: forwarded to the inner
  // process untouched.
  app.OnMessage(ctx, 3, Packet{42, {7}});
  ASSERT_EQ(inner_view->seen.size(), 1u);
  EXPECT_EQ(inner_view->seen[0], 42);
  EXPECT_EQ(ctx.sent_count(), 0u);
}

TEST(AppBaseUnit, AppTrafficNeverReachesInner) {
  auto inner = std::make_unique<InstantWinner>();
  auto* inner_view = inner.get();
  SpanningTreeProcess app(std::move(inner));
  MockContext ctx(1, 2, 8);
  app.OnMessage(ctx, 3, Packet{kTreeInvite, {9}});
  EXPECT_TRUE(inner_view->seen.empty());
}

TEST(SpanningTreeUnit, ElectionTriggersInviteWave) {
  SpanningTreeProcess app(std::make_unique<InstantWinner>());
  MockContext ctx(0, 5, 8);
  app.OnWakeup(ctx);  // inner declares instantly -> app invites everyone
  EXPECT_EQ(ctx.leader_declarations(), 1u);
  EXPECT_EQ(ctx.OfType(kTreeInvite).size(), 7u);
  EXPECT_TRUE(app.is_root());
  EXPECT_EQ(app.root_id(), Id{5});
}

TEST(SpanningTreeUnit, FirstInviteWinsParentEdge) {
  SpanningTreeProcess app(std::make_unique<InstantWinner>());
  MockContext ctx(2, 3, 8);
  app.OnMessage(ctx, 4, Packet{kTreeInvite, {9}});
  ASSERT_TRUE(app.parent_port().has_value());
  EXPECT_EQ(*app.parent_port(), 4u);
  EXPECT_EQ(ctx.single().packet.type, kTreeJoin);
  ctx.ClearSent();
  // A second invite does not re-parent and is not joined.
  app.OnMessage(ctx, 6, Packet{kTreeInvite, {11}});
  EXPECT_EQ(*app.parent_port(), 4u);
  EXPECT_EQ(app.root_id(), Id{9});
  EXPECT_EQ(ctx.sent_count(), 0u);
}

TEST(SpanningTreeUnit, RootCountsJoins) {
  SpanningTreeProcess app(std::make_unique<InstantWinner>());
  MockContext ctx(0, 5, 4);
  app.OnWakeup(ctx);
  for (Port p = 1; p <= 3; ++p) {
    app.OnMessage(ctx, p, Packet{kTreeJoin, {}});
  }
  EXPECT_EQ(app.children(), 3u);
}

TEST(GlobalFunctionUnit, LeaderQueriesReducesAndDisseminates) {
  GlobalFunctionProcess app(std::make_unique<InstantWinner>(), 5,
                            MaxReducer());
  MockContext ctx(0, 9, 4);
  app.OnWakeup(ctx);
  EXPECT_EQ(ctx.OfType(kFnQuery).size(), 3u);
  ctx.ClearSent();
  app.OnMessage(ctx, 1, Packet{kFnReport, {3}});
  app.OnMessage(ctx, 2, Packet{kFnReport, {42}});
  EXPECT_FALSE(app.result().has_value());
  app.OnMessage(ctx, 3, Packet{kFnReport, {7}});
  ASSERT_TRUE(app.result().has_value());
  EXPECT_EQ(*app.result(), 42);  // max(5, 3, 42, 7)
  auto results = ctx.OfType(kFnResult);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].packet.field(0), 42);
}

TEST(GlobalFunctionUnit, NonLeaderAnswersQueryAndStoresResult) {
  GlobalFunctionProcess app(std::make_unique<InstantWinner>(), 13,
                            SumReducer());
  MockContext ctx(2, 3, 4);
  app.OnMessage(ctx, 1, Packet{kFnQuery, {}});
  EXPECT_EQ(ctx.single().packet.type, kFnReport);
  EXPECT_EQ(ctx.single().packet.field(0), 13);
  app.OnMessage(ctx, 1, Packet{kFnResult, {99}});
  EXPECT_EQ(app.result(), 99);
}

TEST(GlobalFunctionUnit, Reducers) {
  EXPECT_EQ(MaxReducer()(3, 9), 9);
  EXPECT_EQ(MaxReducer()(-3, -9), -3);
  EXPECT_EQ(SumReducer()(3, 9), 12);
}

}  // namespace
}  // namespace celect::apps
