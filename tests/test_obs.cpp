// Observability layer tests: metrics registry semantics, trace record
// consistency against the run report, JSONL/Chrome-trace writer validity,
// and the end-to-end wiring through Compass, the transports, and PCC.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "comm/mpi_transport.h"
#include "compiler/pcc.h"
#include "macaque_fixture.h"
#include "obs/jsonv.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/compass.h"

namespace compass {
namespace {

using testing::compile_macaque;

// --- jsonv -------------------------------------------------------------------

bool parses(std::string_view text) {
  try {
    obs::jsonv::JsonParser(text).parse();
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

// The reader is also the tests' validator, so it must refuse what a
// hand-rolled writer can get wrong.
TEST(Jsonv, RejectsMalformedDocuments) {
  for (const std::string_view bad :
       {"", "{", "[1,]", "{\"a\":1,}", "{a:1}", "{\"a\":}", "[1 2]", "1 2",
        "tru", "nul", "\"open", "\"bad \\x escape\"", "\"\\u12G4\"",
        "\"tab\there\"", "\"new\nline\"", "+1", "1.", ".5", "-", "-.5",
        "1e", "1e+", "1.e5", "0x10", "inf", "nan"}) {
    EXPECT_FALSE(parses(bad)) << bad;
  }
  // Raw control characters stay invalid wherever they sit in a string.
  EXPECT_FALSE(parses("\"a\x01\""));
  EXPECT_FALSE(parses(std::string("[\"\0\"]", 5)));
}

TEST(Jsonv, AcceptsWellFormedDocuments) {
  for (const std::string_view good :
       {"0", "-0", "12", "-1.5", "1e5", "1E+2", "2.5e-3", "true", "null",
        "\"\\t\\u00e9\\\"\"", " [ ] ", "{}",
        "{\"a\":[1,2,{\"b\":null}],\"c\":false}"}) {
    EXPECT_TRUE(parses(good)) << good;
  }
  const obs::jsonv::JsonValue v =
      obs::jsonv::JsonParser("{\"n\":18446744073709551615,\"x\":-2.5e-1}")
          .parse();
  EXPECT_TRUE(v.find("n")->is_integer);
  EXPECT_EQ(v.find("n")->integer, 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(v.find("x")->number, -0.25);
}

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistry, CountersAccumulate) {
  obs::MetricsRegistry reg;
  const auto id = reg.counter("spikes", "spikes");
  reg.add(id);
  reg.add(id, 41);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "spikes");
  EXPECT_EQ(snap[0].kind, obs::MetricKind::kCounter);
  EXPECT_EQ(snap[0].count, 42u);
}

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  obs::MetricsRegistry reg;
  const auto a = reg.counter("x");
  const auto b = reg.counter("x");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);
  // Same name as a different kind is a caller bug.
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
}

TEST(MetricsRegistry, GaugeHoldsLastValue) {
  obs::MetricsRegistry reg;
  const auto id = reg.gauge("virtual_s", "s");
  reg.set(id, 1.5);
  reg.set(id, 2.25);
  EXPECT_DOUBLE_EQ(reg.snapshot()[0].value, 2.25);
}

TEST(MetricsRegistry, HistogramBucketsArePowersOfTwo) {
  obs::MetricsRegistry reg;
  const auto id = reg.histogram("per_tick", "spikes");
  reg.observe(id, 0);   // bucket 0
  reg.observe(id, 1);   // bucket 1: [1, 2)
  reg.observe(id, 2);   // bucket 2: [2, 4)
  reg.observe(id, 3);   // bucket 2
  reg.observe(id, 12);  // bucket 4: [8, 16)
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricValue& m = snap[0];
  ASSERT_EQ(m.buckets.size(), 5u);
  EXPECT_EQ(m.buckets[0], 1u);
  EXPECT_EQ(m.buckets[1], 1u);
  EXPECT_EQ(m.buckets[2], 2u);
  EXPECT_EQ(m.buckets[3], 0u);
  EXPECT_EQ(m.buckets[4], 1u);
  EXPECT_EQ(m.observations, 5u);
  EXPECT_EQ(m.sum, 18u);
  EXPECT_EQ(m.min, 0u);
  EXPECT_EQ(m.max, 12u);
}

TEST(MetricsRegistry, HistogramBucketBoundaries) {
  // Bucket b holds [2^(b-1), 2^b) for b >= 1; bucket 0 holds only v = 0.
  obs::MetricsRegistry reg;
  const auto id = reg.histogram("edges");
  reg.observe(id, 0);                     // bucket 0
  reg.observe(id, 1);                     // bucket 1: [1, 2)
  reg.observe(id, 2);                     // bucket 2: [2, 4)
  reg.observe(id, 4);                     // bucket 3: exact power of two
  reg.observe(id, 7);                     // bucket 3: last value of [4, 8)
  reg.observe(id, 8);                     // bucket 4
  reg.observe(id, (1ULL << 32));          // bucket 33
  reg.observe(id, (1ULL << 32) - 1);      // bucket 32
  reg.observe(id, UINT64_MAX);            // bucket 64 (top bucket)
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricValue& m = snap[0];
  ASSERT_EQ(m.buckets.size(), 65u);
  EXPECT_EQ(m.buckets[0], 1u);
  EXPECT_EQ(m.buckets[1], 1u);
  EXPECT_EQ(m.buckets[2], 1u);
  EXPECT_EQ(m.buckets[3], 2u);
  EXPECT_EQ(m.buckets[4], 1u);
  EXPECT_EQ(m.buckets[32], 1u);
  EXPECT_EQ(m.buckets[33], 1u);
  EXPECT_EQ(m.buckets[64], 1u);
  EXPECT_EQ(m.observations, 9u);
  EXPECT_EQ(m.min, 0u);
  EXPECT_EQ(m.max, UINT64_MAX);
}

TEST(MetricsRegistry, JsonSnapshotIsValidJson) {
  obs::MetricsRegistry reg;
  reg.add(reg.counter("a \"quoted\" name\n", "bytes"), 7);
  reg.set(reg.gauge("g"), -0.125);
  reg.observe(reg.histogram("h"), 1023);
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_NO_THROW(obs::jsonv::JsonParser(os.str()).parse()) << os.str();
  EXPECT_NE(os.str().find("\"metrics\""), std::string::npos);
}

TEST(Prometheus, CounterGaugeAndHistogramExposition) {
  obs::MetricsRegistry reg;
  reg.add(reg.counter("comm.messages", "msgs"), 68);
  reg.set(reg.gauge("run.virtual_time_s", "s"), 0.25);
  const auto h = reg.histogram("tick.fired", "spikes");
  reg.observe(h, 0);  // bucket 0
  reg.observe(h, 1);  // bucket 1
  reg.observe(h, 3);  // bucket 2

  std::ostringstream os;
  obs::write_snapshot_prometheus(os, reg.snapshot());
  const std::string prom = os.str();

  // Names sanitized to [a-zA-Z0-9_:]; counters gain the _total suffix.
  EXPECT_NE(prom.find("# TYPE comm_messages_total counter"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("comm_messages_total 68"), std::string::npos);
  EXPECT_NE(prom.find("# HELP comm_messages_total comm.messages (msgs)"),
            std::string::npos);
  EXPECT_NE(prom.find("run_virtual_time_s 0.25"), std::string::npos);

  // Histogram buckets are cumulative, le = 2^b - 1, closed with +Inf.
  EXPECT_NE(prom.find("tick_fired_bucket{le=\"0\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("tick_fired_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("tick_fired_bucket{le=\"3\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("tick_fired_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("tick_fired_sum 4"), std::string::npos);
  EXPECT_NE(prom.find("tick_fired_count 3"), std::string::npos);
}

TEST(Prometheus, TopBucketUpperBoundIsU64Max) {
  obs::MetricsRegistry reg;
  reg.observe(reg.histogram("wide"), UINT64_MAX);
  std::ostringstream os;
  obs::write_snapshot_prometheus(os, reg.snapshot());
  // bit_width(UINT64_MAX) = 64; 2^64 - 1 does not fit, so the bound clamps.
  EXPECT_NE(os.str().find("wide_bucket{le=\"18446744073709551615\"} 1"),
            std::string::npos)
      << os.str();
}

TEST(Prometheus, NamesStartingWithDigitsGetPrefixed) {
  obs::MetricsRegistry reg;
  reg.add(reg.counter("9lives"), 1);
  std::ostringstream os;
  obs::write_snapshot_prometheus(os, reg.snapshot());
  EXPECT_NE(os.str().find("_9lives_total 1"), std::string::npos) << os.str();
}

// --- Trace writers --------------------------------------------------------

obs::SpanRecord sample_span() {
  obs::SpanRecord s;
  s.tick = 3;
  s.rank = 1;
  s.phase = obs::Phase::kNeuron;
  s.compute_s = 1.25e-4;
  s.comm_s = 2e-6;
  s.spikes = 17;
  s.messages = 2;
  s.bytes = 340;
  return s;
}

TEST(JsonlTraceWriter, EveryLineIsValidJson) {
  std::ostringstream os;
  obs::JsonlTraceWriter w(os);
  w.on_span(sample_span());
  obs::TickRecord t;
  t.tick = 3;
  t.synapse_s = 1e-5;
  t.fired = 17;
  w.on_tick(t);

  std::istringstream is(os.str());
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    EXPECT_NO_THROW(obs::jsonv::JsonParser(line).parse()) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  EXPECT_NE(os.str().find("\"type\":\"span\""), std::string::npos);
  EXPECT_NE(os.str().find("\"type\":\"tick\""), std::string::npos);
  EXPECT_NE(os.str().find("\"phase\":\"neuron\""), std::string::npos);
}

TEST(JsonlTraceWriter, IncludeMeasuredOffDropsHostTimes) {
  std::ostringstream os;
  obs::JsonlTraceWriter w(os, obs::JsonlOptions{.include_measured = false});
  w.on_span(sample_span());
  EXPECT_EQ(os.str().find("compute_s"), std::string::npos);
  EXPECT_NE(os.str().find("comm_s"), std::string::npos);
}

TEST(ChromeTraceWriter, ProducesLoadableTraceJson) {
  obs::ChromeTraceWriter w;
  obs::TickRecord t;
  t.tick = 0;
  t.synapse_s = 1e-5;
  t.neuron_s = 2e-5;
  t.network_s = 3e-5;
  w.on_tick(t);
  obs::SpanRecord s = sample_span();
  s.tick = 0;
  w.on_span(s);

  std::ostringstream os;
  w.write(os);
  EXPECT_NO_THROW(obs::jsonv::JsonParser(os.str()).parse()) << os.str();
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(os.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(os.str().find("rank 1"), std::string::npos);
}

TEST(ChromeTraceWriter, BoundedBufferDropsAndCountsExcessRecords) {
  // A multi-hour run must not grow the in-memory Chrome buffer without
  // bound: past the cap, records are dropped (spans and ticks alike, so the
  // retained prefix is coherent) and counted.
  obs::ChromeTraceWriter w(/*max_records=*/3);
  for (int i = 0; i < 5; ++i) {
    obs::SpanRecord s = sample_span();
    s.tick = static_cast<arch::Tick>(i);
    w.on_span(s);
  }
  obs::TickRecord t;
  t.tick = 5;
  w.on_tick(t);
  EXPECT_EQ(w.dropped(), 3u);

  std::ostringstream os;
  w.write(os);
  EXPECT_NO_THROW(obs::jsonv::JsonParser(os.str()).parse()) << os.str();
  // The emitted trace announces the truncation so a viewer-side reader
  // can't mistake the prefix for the whole run.
  EXPECT_NE(os.str().find("trace truncated"), std::string::npos);
  EXPECT_NE(os.str().find("3 records dropped"), std::string::npos);
}

TEST(ChromeTraceWriter, DefaultCapKeepsEverythingForShortRuns) {
  obs::ChromeTraceWriter w;
  w.on_span(sample_span());
  EXPECT_EQ(w.dropped(), 0u);
  std::ostringstream os;
  w.write(os);
  EXPECT_EQ(os.str().find("trace truncated"), std::string::npos);
}

// --- End-to-end wiring through Compass ------------------------------------

TEST(CompassTrace, SpanAndTickRecordShapes) {
  compiler::PccResult pcc = compile_macaque();
  comm::MpiTransport transport(3, comm::CommCostModel{});
  runtime::Compass sim(pcc.model, pcc.partition, transport);
  obs::TraceBuffer buf;
  sim.add_trace_sink(&buf);
  const arch::Tick ticks = 20;
  const runtime::RunReport rep = sim.run(ticks);

  ASSERT_EQ(buf.ticks().size(), ticks);
  ASSERT_EQ(buf.spans().size(), ticks * 3u * 3u);  // ticks x ranks x phases

  // Per-tick sums of the functional counters reproduce the run report.
  std::uint64_t fired = 0, messages = 0, bytes = 0, local = 0, remote = 0;
  for (const obs::TickRecord& t : buf.ticks()) {
    fired += t.fired;
    messages += t.messages;
    bytes += t.bytes;
    local += t.local;
    remote += t.remote;
  }
  EXPECT_EQ(fired, rep.fired_spikes);
  EXPECT_EQ(messages, rep.messages);
  EXPECT_EQ(bytes, rep.wire_bytes);
  EXPECT_EQ(local, rep.local_spikes);
  EXPECT_EQ(remote, rep.remote_spikes);
}

TEST(CompassTrace, TracedPhaseTimesMatchPhaseBreakdownTotals) {
  compiler::PccResult pcc = compile_macaque();
  comm::MpiTransport transport(3, comm::CommCostModel{});
  runtime::Compass sim(pcc.model, pcc.partition, transport);
  obs::TraceBuffer buf;
  sim.add_trace_sink(&buf);
  const runtime::RunReport rep = sim.run(25);

  double synapse = 0.0, neuron = 0.0, network = 0.0;
  for (const obs::TickRecord& t : buf.ticks()) {
    synapse += t.synapse_s;
    neuron += t.neuron_s;
    network += t.network_s;
  }
  EXPECT_NEAR(synapse, rep.virtual_time.synapse, 1e-9);
  EXPECT_NEAR(neuron, rep.virtual_time.neuron, 1e-9);
  EXPECT_NEAR(network, rep.virtual_time.network, 1e-9);
}

TEST(CompassTrace, NeuronSpansSumToFiredSpikes) {
  compiler::PccResult pcc = compile_macaque();
  comm::MpiTransport transport(3, comm::CommCostModel{});
  runtime::Compass sim(pcc.model, pcc.partition, transport);
  obs::TraceBuffer buf;
  sim.add_trace_sink(&buf);
  const runtime::RunReport rep = sim.run(15);

  std::uint64_t fired = 0, sent_messages = 0, recv_messages = 0;
  for (const obs::SpanRecord& s : buf.spans()) {
    if (s.phase == obs::Phase::kNeuron) {
      fired += s.spikes;
      sent_messages += s.messages;
    }
    if (s.phase == obs::Phase::kNetwork) recv_messages += s.messages;
  }
  EXPECT_EQ(fired, rep.fired_spikes);
  EXPECT_EQ(sent_messages, rep.messages);
  EXPECT_EQ(recv_messages, rep.messages);  // every message is received once
}

TEST(CompassTrace, MultipleSinksAllReceiveRecords) {
  compiler::PccResult pcc = compile_macaque();
  comm::MpiTransport transport(3, comm::CommCostModel{});
  runtime::Compass sim(pcc.model, pcc.partition, transport);
  obs::TraceBuffer a, b;
  sim.add_trace_sink(&a);
  sim.add_trace_sink(&b);
  sim.run(5);
  EXPECT_EQ(a.ticks().size(), 5u);
  EXPECT_EQ(a.spans().size(), b.spans().size());
  EXPECT_TRUE(a.spans() == b.spans());
}

TEST(CompassMetrics, RuntimeTransportAndPccPublish) {
  obs::MetricsRegistry reg;
  compiler::PccResult pcc = compile_macaque({.metrics = &reg});
  comm::MpiTransport transport(3, comm::CommCostModel{});
  runtime::Compass sim(pcc.model, pcc.partition, transport);
  sim.set_metrics(&reg);
  const runtime::RunReport rep = sim.run(18);

  ASSERT_FALSE(rep.metrics.empty());
  auto find = [&](const std::string& name) -> const obs::MetricValue& {
    for (const obs::MetricValue& m : rep.metrics) {
      if (m.name == name) return m;
    }
    ADD_FAILURE() << "metric not found: " << name;
    static const obs::MetricValue missing{};
    return missing;
  };

  EXPECT_EQ(find("run.ticks").count, rep.ticks);
  EXPECT_EQ(find("run.fired_spikes").count, rep.fired_spikes);
  EXPECT_EQ(find("run.local_spikes").count, rep.local_spikes);
  EXPECT_EQ(find("run.remote_spikes").count, rep.remote_spikes);
  EXPECT_EQ(find("comm.messages").count, rep.messages);
  EXPECT_EQ(find("comm.wire_bytes").count, rep.wire_bytes);
  EXPECT_EQ(find("comm.remote_spikes").count, rep.remote_spikes);
  EXPECT_EQ(find("tick.fired_spikes").observations, rep.ticks);
  EXPECT_EQ(find("tick.fired_spikes").sum, rep.fired_spikes);
  EXPECT_GT(find("pcc.white_connections").count, 0u);
  EXPECT_GT(find("pcc.gray_connections").count, 0u);
  EXPECT_NEAR(find("run.virtual_time_s").value, rep.virtual_total_s(), 1e-12);
}

TEST(CompassMetrics, EveryStepPublishesItsCommCounters) {
  compiler::PccResult pcc = compile_macaque();
  comm::MpiTransport transport(3, comm::CommCostModel{});
  runtime::Compass sim(pcc.model, pcc.partition, transport);
  obs::MetricsRegistry reg;
  sim.set_metrics(&reg);
  auto count = [&](const std::string& name) {
    for (const obs::MetricValue& m : reg.snapshot()) {
      if (m.name == name) return m.count;
    }
    ADD_FAILURE() << "metric not found: " << name;
    return std::uint64_t{0};
  };
  // step() alone, no run(): each tick's counters are in the registry as
  // soon as the step returns, the last one included.
  for (int i = 0; i < 7; ++i) {
    sim.step();
    const runtime::RunReport& rep = sim.report();
    EXPECT_EQ(count("comm.messages"), rep.messages);
    EXPECT_EQ(count("comm.remote_spikes"), rep.remote_spikes);
    EXPECT_EQ(count("comm.wire_bytes"), rep.wire_bytes);
  }
  EXPECT_GT(sim.report().messages, 0u);
}

TEST(CompassMetrics, DisabledRunCarriesNoSnapshot) {
  compiler::PccResult pcc = compile_macaque();
  comm::MpiTransport transport(3, comm::CommCostModel{});
  runtime::Compass sim(pcc.model, pcc.partition, transport);
  const runtime::RunReport rep = sim.run(3);
  EXPECT_TRUE(rep.metrics.empty());
}

}  // namespace
}  // namespace compass
