#include "multifrontal/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/request_context.hpp"

namespace mfgpu {
namespace {

TEST(TraceTest, OpsFollowPaperConventions) {
  FuCallRecord r;
  r.m = 6;
  r.k = 3;
  EXPECT_DOUBLE_EQ(r.ops_potrf(), 9.0);     // k^3/3
  EXPECT_DOUBLE_EQ(r.ops_trsm(), 54.0);     // m k^2
  EXPECT_DOUBLE_EQ(r.ops_syrk(), 108.0);    // m^2 k
  EXPECT_DOUBLE_EQ(r.ops_total(), 171.0);
}

TEST(TraceTest, ComponentTotalsSum) {
  FactorizationTrace trace;
  for (int i = 0; i < 3; ++i) {
    FuCallRecord r;
    r.m = 4;
    r.k = 2;
    r.t_potrf = 0.1;
    r.t_trsm = 0.2;
    r.t_syrk = 0.3;
    r.t_copy = 0.05;
    trace.calls.push_back(r);
  }
  EXPECT_NEAR(trace.total_potrf(), 0.3, 1e-12);
  EXPECT_NEAR(trace.total_trsm(), 0.6, 1e-12);
  EXPECT_NEAR(trace.total_syrk(), 0.9, 1e-12);
  EXPECT_NEAR(trace.total_copy(), 0.15, 1e-12);
}

TEST(TraceTest, CsvHasHeaderAndOneRowPerCall) {
  FactorizationTrace trace;
  FuCallRecord r;
  r.snode = 7;
  r.m = 10;
  r.k = 5;
  r.policy = 3;
  r.t_total = 1.5;
  trace.calls.push_back(r);
  std::ostringstream os;
  trace.write_csv(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("snode,m,k,policy"), std::string::npos);
  EXPECT_NE(text.find("7,10,5,3"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(TraceTest, CsvRoundTripsDoublesAtFullPrecision) {
  FactorizationTrace trace;
  FuCallRecord r;
  r.snode = 0;
  r.m = 11;
  r.k = 7;
  r.policy = 2;
  r.t_potrf = 1.0 / 3.0;
  r.t_trsm = 2.3283064365386963e-10;  // 2^-32: tiny per-kernel time
  r.t_syrk = 0.1;                     // not exactly representable
  r.t_copy = 1e-300;
  r.t_total = r.t_potrf + r.t_trsm + r.t_syrk + r.t_copy;
  trace.calls.push_back(r);

  std::ostringstream os;
  trace.write_csv(os);
  // Default stream precision restored for later writers on the same stream.
  EXPECT_EQ(os.precision(), 6);

  std::istringstream is(os.str());
  std::string header, row;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, row));
  std::vector<std::string> fields;
  std::istringstream row_stream(row);
  for (std::string field; std::getline(row_stream, field, ',');) {
    fields.push_back(field);
  }
  ASSERT_EQ(fields.size(), 14u);
  EXPECT_EQ(fields[4], "1");  // batch width (per-front call)
  EXPECT_DOUBLE_EQ(std::stod(fields[5]), r.t_potrf);
  EXPECT_DOUBLE_EQ(std::stod(fields[6]), r.t_trsm);
  EXPECT_DOUBLE_EQ(std::stod(fields[7]), r.t_syrk);
  EXPECT_DOUBLE_EQ(std::stod(fields[8]), r.t_copy);
  EXPECT_DOUBLE_EQ(std::stod(fields[9]), r.t_total);
  EXPECT_EQ(fields[11], "0");  // faults
  EXPECT_EQ(fields[12], "0");  // fell_back
  EXPECT_EQ(fields[13], "0");  // request_id (outside the serving layer)
}

TEST(TraceTest, RecordCallStampsBoundRequestId) {
  obs::RequestContext ctx;
  ctx.request_id = obs::next_request_id();
  FactorizationTrace trace;
  {
    obs::RequestScope scope(&ctx);
    trace.record_call(FuCallRecord{});
  }
  trace.record_call(FuCallRecord{});  // unbound thread -> stays 0
  ASSERT_EQ(trace.calls.size(), 2u);
  EXPECT_EQ(trace.calls[0].request_id, ctx.request_id);
  EXPECT_EQ(trace.calls[1].request_id, 0u);

  std::ostringstream os;
  trace.write_csv(os);
  std::string row_end = ",";
  row_end.append(std::to_string(ctx.request_id)).append("\n");
  EXPECT_NE(os.str().find(row_end), std::string::npos);
}

TEST(TraceTest, RecordCallAccumulatesAndPublishesMetrics) {
  obs::MetricsRegistry::global().clear();
  obs::enable();
  FactorizationTrace trace;
  FuCallRecord r;
  r.m = 8;
  r.k = 4;
  r.policy = 3;
  r.t_potrf = 0.25;
  r.t_total = 1.0;
  trace.record_call(r);
  trace.record_call(r);
  obs::disable();

  EXPECT_EQ(trace.calls.size(), 2u);
  EXPECT_DOUBLE_EQ(trace.fu_time, 2.0);
  auto& metrics = obs::MetricsRegistry::global();
  EXPECT_DOUBLE_EQ(metrics.counter("fu.calls"), 2.0);
  EXPECT_DOUBLE_EQ(metrics.counter("fu.time.potrf"), 0.5);
  EXPECT_DOUBLE_EQ(metrics.counter("fu.time.total"), 2.0);
  EXPECT_DOUBLE_EQ(metrics.counter("fu.policy.p3.calls"), 2.0);
  metrics.clear();
}

TEST(TraceTest, RecordCallSkipsMetricsWhenDisabled) {
  obs::disable();
  obs::MetricsRegistry::global().clear();
  FactorizationTrace trace;
  trace.record_call(FuCallRecord{});
  EXPECT_EQ(trace.calls.size(), 1u);
  EXPECT_DOUBLE_EQ(obs::MetricsRegistry::global().counter("fu.calls"), 0.0);
}

TEST(TraceTest, ClearResets) {
  FactorizationTrace trace;
  trace.calls.emplace_back();
  trace.total_time = 1.0;
  trace.fu_time = 0.5;
  trace.assembly_time = 0.25;
  trace.clear();
  EXPECT_TRUE(trace.calls.empty());
  EXPECT_DOUBLE_EQ(trace.total_time, 0.0);
  EXPECT_DOUBLE_EQ(trace.fu_time, 0.0);
  EXPECT_DOUBLE_EQ(trace.assembly_time, 0.0);
}

}  // namespace
}  // namespace mfgpu
