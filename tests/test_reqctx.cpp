// Request-scoped observability (DESIGN.md §15, ctest -L obs): trace ids,
// the span gate, span-tree construction, the timing scope (trace::Span)
// and the per-thread phase table every timing number reads, per-phase wall
// attribution, the flight recorder's retention/eviction policy, and — the
// reason this suite is raced by the TSan CI job — attribution correctness
// under concurrency: threads timing at once each see only their own phase
// table, and contexts bound to different threads build disjoint span trees
// whose per-request phase sums track each thread's own measured wall.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/cases.hpp"
#include "mesh/composite.hpp"
#include "solver/rans.hpp"
#include "util/metrics.hpp"
#include "util/reqctx.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define ADARNET_TEST_SOCKETS 1
#include "util/fault.hpp"
#include "util/serving.hpp"
#include "util/socket_io.hpp"
#endif

namespace {

namespace metrics = adarnet::util::metrics;
namespace reqctx = adarnet::util::reqctx;
namespace trace = adarnet::util::trace;
using adarnet::util::WallTimer;
using reqctx::Phase;

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

// Spins for `seconds` of wall time.
void burn(double seconds) {
  WallTimer t;
  volatile double sink = 0.0;
  while (t.seconds() < seconds) sink = sink + 1.0;
}

std::int64_t delta(const reqctx::PhaseTable& before,
                   const reqctx::PhaseTable& after, Phase p) {
  const auto i = static_cast<std::size_t>(p);
  return after[i] - before[i];
}

// --- trace ids --------------------------------------------------------------

TEST(TraceId, NextIsNonzeroAndUnique) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t id = reqctx::next_trace_id();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second) << "duplicate trace id";
  }
}

TEST(TraceId, HexRoundTripAndStrictParse) {
  const std::uint64_t id = 0xdeadbeef12345678ULL;
  const std::string hex = reqctx::trace_id_hex(id);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex, "deadbeef12345678");
  std::uint64_t back = 0;
  ASSERT_TRUE(reqctx::parse_trace_id(hex, &back));
  EXPECT_EQ(back, id);
  // Upper-case and short forms parse too (telemetry URLs are hand-typed).
  ASSERT_TRUE(reqctx::parse_trace_id("DEADBEEF12345678", &back));
  EXPECT_EQ(back, id);
  ASSERT_TRUE(reqctx::parse_trace_id("1f", &back));
  EXPECT_EQ(back, 0x1fu);
  // Rejected: empty, junk, too long, and the reserved zero id.
  EXPECT_FALSE(reqctx::parse_trace_id("", &back));
  EXPECT_FALSE(reqctx::parse_trace_id("xyz", &back));
  EXPECT_FALSE(reqctx::parse_trace_id("deadbeef123456789", &back));
  EXPECT_FALSE(reqctx::parse_trace_id("0000000000000000", &back));
}

TEST(PhaseNames, AllPhasesHaveStableNames) {
  std::set<std::string> names;
  for (int p = 0; p < reqctx::kPhaseCount; ++p) {
    const std::string name = reqctx::to_string(static_cast<Phase>(p));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate phase name " << name;
  }
  EXPECT_EQ(reqctx::to_string(Phase::kQueue), std::string("queue"));
  EXPECT_EQ(reqctx::to_string(Phase::kRespond), std::string("respond"));
}

// --- RequestContext ---------------------------------------------------------

TEST(RequestContextTest, PhasesAccumulateAndIgnoreNonPositive) {
  reqctx::RequestContext ctx(reqctx::next_trace_id());
  ctx.add_phase(Phase::kInfer, 0.25);
  ctx.add_phase(Phase::kInfer, 0.25);
  ctx.add_phase(Phase::kPressure, 0.5);
  ctx.add_phase(Phase::kMomentum, -1.0);  // clock skew must not subtract
  ctx.add_phase(Phase::kMomentum, 0.0);
  EXPECT_DOUBLE_EQ(ctx.phase_seconds(Phase::kInfer), 0.5);
  EXPECT_DOUBLE_EQ(ctx.phase_seconds(Phase::kPressure), 0.5);
  EXPECT_DOUBLE_EQ(ctx.phase_seconds(Phase::kMomentum), 0.0);
  EXPECT_DOUBLE_EQ(ctx.meta.attributed_seconds(), 1.0);
}

TEST(RequestContextTest, CountersAggregateByName) {
  reqctx::RequestContext ctx(reqctx::next_trace_id());
  ctx.count("solver.outer_iterations", 2);
  ctx.count("solver.outer_iterations", 3);
  ctx.count("mg.cycles", 1);
  ASSERT_EQ(ctx.counters().size(), 2u);
  EXPECT_EQ(std::string(ctx.counters()[0].name), "solver.outer_iterations");
  EXPECT_EQ(ctx.counters()[0].delta, 5);
  EXPECT_EQ(ctx.counters()[1].delta, 1);
}

TEST(RequestContextTest, ScopeBindsNestsAndRestoresGate) {
  const bool base_armed = reqctx::armed();
  EXPECT_EQ(reqctx::current(), nullptr);
  reqctx::RequestContext ctx(reqctx::next_trace_id());
  {
    reqctx::Scope scope(&ctx);
    EXPECT_EQ(reqctx::current(), &ctx);
    EXPECT_TRUE(reqctx::armed());
    {
      // Binding nullptr temporarily unbinds: spans in here must not land
      // in ctx (background flushers use this).
      reqctx::Scope unbind(nullptr);
      EXPECT_EQ(reqctx::current(), nullptr);
      trace::Span stray("test.unbound");
    }
    EXPECT_EQ(reqctx::current(), &ctx);
  }
  EXPECT_EQ(reqctx::current(), nullptr);
  EXPECT_EQ(reqctx::armed(), base_armed);
  for (const reqctx::SpanNode& n : ctx.spans()) {
    EXPECT_NE(std::string(n.name), "test.unbound");
  }
}

TEST(RequestContextTest, SpansBuildANestedTree) {
  reqctx::RequestContext ctx(reqctx::next_trace_id());
  {
    reqctx::Scope scope(&ctx);
    trace::Span outer("test.outer");
    {
      trace::Span inner("test.inner");
    }
    {
      trace::Span sibling("test.sibling");
    }
  }
  ASSERT_EQ(ctx.spans().size(), 3u);
  EXPECT_EQ(std::string(ctx.spans()[0].name), "test.outer");
  EXPECT_EQ(ctx.spans()[0].parent, -1);
  EXPECT_EQ(std::string(ctx.spans()[1].name), "test.inner");
  EXPECT_EQ(ctx.spans()[1].parent, 0);
  EXPECT_EQ(std::string(ctx.spans()[2].name), "test.sibling");
  EXPECT_EQ(ctx.spans()[2].parent, 0);
  for (const reqctx::SpanNode& n : ctx.spans()) {
    EXPECT_GE(n.dur_us, 0) << n.name << " left open";
  }
  EXPECT_EQ(ctx.dropped_spans(), 0);
}

TEST(RequestContextTest, SpanTreeCapCountsDrops) {
  reqctx::RequestContext ctx(reqctx::next_trace_id());
  constexpr int kTotal = 1100;  // kMaxSpans is 1024
  {
    reqctx::Scope scope(&ctx);
    for (int i = 0; i < kTotal; ++i) {
      trace::Span s("test.cap");
    }
  }
  EXPECT_EQ(ctx.spans().size(), 1024u);
  EXPECT_EQ(ctx.dropped_spans(), kTotal - 1024);
}

TEST(RequestContextTest, FinalizeClosesOpenSpans) {
  reqctx::RequestContext ctx(reqctx::next_trace_id());
  std::int64_t start_us = 0;
  {
    reqctx::Scope scope(&ctx);
    start_us = trace::detail::now_us();
    // A crash path can unwind past Span destructors on the trace path;
    // open the node directly to model a span that never closed.
    reqctx::detail::open_span("test.open", start_us);
  }
  ASSERT_EQ(ctx.spans().size(), 1u);
  EXPECT_LT(ctx.spans()[0].dur_us, 0);  // still open
  ctx.finalize(start_us + 500);
  EXPECT_EQ(ctx.spans()[0].dur_us, 500);
  EXPECT_EQ(ctx.meta.end_us, start_us + 500);
}

// --- the timing scope (trace::Span) ----------------------------------------

TEST(PhaseScope, InclusiveTimeFeedsItsCounterAndAccumulates) {
  metrics::Counter& c = metrics::counter("obs.test.scope.ns");
  const trace::Site site{"obs.test.scope", &c};
  const long long before = c.value();
  double first = 0.0;
  {
    trace::Span span(site);
    burn(2e-3);
    first = span.stop();
    EXPECT_EQ(span.stop(), first) << "stop() ends the scope once";
  }
  EXPECT_GE(first, 2e-3);
  double second = 0.0;
  {
    trace::Span span(site);
    burn(1e-3);
    second = span.stop();
  }
  EXPECT_GE(second, 1e-3);
  if (metrics::enabled()) {
    // Every sink receives the one measurement: the counter holds exactly
    // the nanoseconds stop() reported, summed over both sections.
    EXPECT_NEAR(static_cast<double>(c.value() - before),
                (first + second) * 1e9, 2.0);
  }
}

TEST(PhaseScope, NestedScopeOfAnotherPhaseLeavesItsParentsPhaseTime) {
  metrics::Counter& outer_ns = metrics::counter("obs.test.nest.outer.ns");
  metrics::Counter& inner_ns = metrics::counter("obs.test.nest.inner.ns");
  const trace::Site outer_site{"obs.test.nest.outer", &outer_ns,
                               Phase::kInfer, false};
  const trace::Site inner_site{"obs.test.nest.inner", &inner_ns,
                               Phase::kPressure, false};
  const trace::Site plain{"obs.test.nest.plain", nullptr, trace::kInherit,
                          false};
  const long long outer0 = outer_ns.value();
  const long long inner0 = inner_ns.value();
  const reqctx::PhaseTable t0 = trace::phase_table();
  double outer_s = 0.0;
  double inner_s = 0.0;
  {
    trace::Span outer(outer_site);
    burn(1e-3);
    {
      trace::Span inner(inner_site);
      {
        trace::Span nested(plain);  // no phase: inherits kPressure
        burn(2e-3);
      }
      inner_s = inner.stop();
    }
    {
      trace::Span own(plain);  // inherits kInfer
      burn(1e-3);
    }
    outer_s = outer.stop();
  }
  {
    trace::Span top(plain);  // no phase anywhere up the stack: untracked
    burn(1e-4);
  }
  const reqctx::PhaseTable t1 = trace::phase_table();
  const std::int64_t infer = delta(t0, t1, Phase::kInfer);
  const std::int64_t pressure = delta(t0, t1, Phase::kPressure);
  // The nested scope's phase gets all of its time, nested scopes included;
  // the parent's phase gets the parent's duration minus it.
  EXPECT_NEAR(static_cast<double>(pressure), inner_s * 1e9, 1.0);
  EXPECT_NEAR(static_cast<double>(infer + pressure), outer_s * 1e9, 1.0);
  EXPECT_GE(pressure, 2'000'000);
  EXPECT_GE(infer, 2'000'000);
  for (int p = 0; p < reqctx::kPhaseCount; ++p) {
    const auto phase = static_cast<Phase>(p);
    if (phase != Phase::kInfer && phase != Phase::kPressure) {
      EXPECT_EQ(delta(t0, t1, phase), 0) << reqctx::to_string(phase);
    }
  }
  if (metrics::enabled()) {
    // Inclusive counters keep the nested time, to the nanosecond.
    EXPECT_EQ(outer_ns.value() - outer0, infer + pressure);
    EXPECT_EQ(inner_ns.value() - inner0, pressure);
  }
}

TEST(PhaseScope, FourThreadsTimingAtOnceSeeOnlyTheirOwnTable) {
  constexpr int kThreads = 4;
  constexpr int kScopes = 200;
  const Phase phase_for[kThreads] = {Phase::kInfer, Phase::kMomentum,
                                     Phase::kPressure, Phase::kSa};
  std::atomic<int> ready{0};
  reqctx::PhaseTable deltas[kThreads] = {};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const trace::Site site{"obs.test.thread", nullptr, phase_for[t], false};
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // all four time at once
      const reqctx::PhaseTable before = trace::phase_table();
      for (int i = 0; i < kScopes; ++i) {
        trace::Span span(site);
        burn(20e-6);
      }
      const reqctx::PhaseTable after = trace::phase_table();
      for (int p = 0; p < reqctx::kPhaseCount; ++p) {
        deltas[t][static_cast<std::size_t>(p)] =
            delta(before, after, static_cast<Phase>(p));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int p = 0; p < reqctx::kPhaseCount; ++p) {
      const std::int64_t d = deltas[t][static_cast<std::size_t>(p)];
      if (static_cast<Phase>(p) == phase_for[t]) {
        EXPECT_GE(d, kScopes * 20'000LL) << "thread " << t;
      } else {
        EXPECT_EQ(d, 0) << "thread " << t << " saw "
                        << reqctx::to_string(static_cast<Phase>(p));
      }
    }
  }
}

// A real solve bound to a request: the solver's phase scopes feed one
// per-thread table, and SolveStats::phase_seconds, the solver.<phase>.ns
// counters and the request's phase attribution all read its delta.
struct BoundSolve {
  adarnet::solver::SolveStats stats;
  std::unique_ptr<reqctx::RequestContext> ctx =
      std::make_unique<reqctx::RequestContext>(reqctx::next_trace_id());
  long long counter_delta[5] = {};
};

constexpr Phase kSolverPhases[5] = {Phase::kMomentum, Phase::kRhieChow,
                                    Phase::kPressure, Phase::kSa,
                                    Phase::kGhosts};
constexpr const char* kSolverCounters[5] = {
    "solver.momentum.ns", "solver.rhie_chow.ns", "solver.pressure.ns",
    "solver.sa.ns", "solver.ghosts.ns"};

BoundSolve bound_iterate(int iterations) {
  const auto spec = adarnet::data::channel_case(
      2.5e3, adarnet::data::GridPreset{16, 64, 8, 8});
  // Wall rows refined: a composite mesh runs the multigrid p' solve with
  // level-jump exchanges nested in the pressure phase.
  adarnet::mesh::RefinementMap map(spec.npy(), spec.npx(), 0);
  for (int pj = 0; pj < spec.npx(); ++pj) map.set_level(0, pj, 1);
  const adarnet::mesh::CompositeMesh mesh(spec, map);
  adarnet::solver::RansSolver solver(mesh, adarnet::solver::SolverConfig{});
  auto f = adarnet::mesh::make_field(mesh);
  solver.initialize_freestream(f);
  BoundSolve out;
  long long before[5];
  for (int i = 0; i < 5; ++i) {
    before[i] = metrics::counter(kSolverCounters[i]).value();
  }
  {
    reqctx::Scope scope(out.ctx.get());
    out.stats = solver.iterate(f, iterations);
  }
  for (int i = 0; i < 5; ++i) {
    out.counter_delta[i] =
        metrics::counter(kSolverCounters[i]).value() - before[i];
  }
  return out;
}

TEST(PhaseScope, SolvePhasesAreOneTableDeltaForStatsCountersAndRequest) {
  const BoundSolve run = bound_iterate(30);
  const adarnet::solver::PhaseTimes& ph = run.stats.phase_seconds;
  const double stats_s[5] = {ph.momentum, ph.rhie_chow, ph.pressure, ph.sa,
                             ph.ghosts};
  for (int i = 0; i < 5; ++i) {
    SCOPED_TRACE(kSolverCounters[i]);
    EXPECT_GT(stats_s[i], 0.0);
    EXPECT_NEAR(run.ctx->phase_seconds(kSolverPhases[i]), stats_s[i], 1e-9);
    if (metrics::enabled()) {
      EXPECT_NEAR(static_cast<double>(run.counter_delta[i]) * 1e-9,
                  stats_s[i], 1e-9);
    }
  }
  // The solve scope's own self time is the solver glue, so phases + glue
  // is the solve wall.
  EXPECT_GT(run.ctx->phase_seconds(Phase::kSolverGlue), 0.0);
  EXPECT_NEAR(run.ctx->phase_seconds(Phase::kSolverGlue) + ph.total(),
              run.stats.seconds, 1e-8);
}

TEST(PhaseScope, SolveAddsNoPerIterationSpanNodes) {
  const BoundSolve run = bound_iterate(30);
  ASSERT_EQ(run.stats.iterations, 30);
  // The phase and multigrid scopes are event-free: a bound request sees
  // the one solver.iterate node, not one per iteration or exchange.
  ASSERT_EQ(run.ctx->spans().size(), 1u);
  EXPECT_EQ(std::string(run.ctx->spans()[0].name), "solver.iterate");
  EXPECT_EQ(run.ctx->dropped_spans(), 0);
}

// --- trace buffer cap (global timeline) -------------------------------------

TEST(TraceBufferCap, DropsAtCapAndCounts) {
  const std::size_t old_cap = trace::max_events();
  const long long drops_before =
      metrics::counter("trace.dropped_events").value();
  // Enabling tracing programmatically; nothing is flushed to this path
  // because the test disables tracing again before any flush().
  trace::set_path("test_reqctx_trace_never_written.json");
  trace::clear();
  trace::set_max_events(8);
  for (int i = 0; i < 20; ++i) {
    trace::Span s("test.trace_cap");
  }
  EXPECT_EQ(trace::event_count(), 8u);
  EXPECT_EQ(trace::dropped_count(), 12);
  if (metrics::enabled()) {
    EXPECT_EQ(metrics::counter("trace.dropped_events").value() - drops_before,
              12);
  }
  trace::set_max_events(old_cap);
  trace::set_path("");
  trace::clear();
}

// --- flight recorder --------------------------------------------------------

reqctx::RequestSummary make_summary(std::uint64_t id, double wall_s = 0.01) {
  reqctx::RequestSummary s;
  s.trace_id = id;
  s.case_name = "channel";
  s.http_status = 200;
  s.service_stage = "full";
  s.wall_s = wall_s;
  return s;
}

TEST(FlightRecorderTest, SummaryRingWrapsOldestFirst) {
  reqctx::FlightRecorder rec;
  rec.configure({4, 2, 0, 1000});
  for (std::uint64_t id = 1; id <= 6; ++id) rec.record_summary(make_summary(id));
  EXPECT_EQ(rec.recorded(), 6);
  const auto out = rec.summaries();
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].trace_id, i + 3) << "ring order, oldest first";
  }
}

TEST(FlightRecorderTest, ReconfigureShrinkKeepsNewestSummaries) {
  reqctx::FlightRecorder rec;
  rec.configure({8, 4, 0, 1000000});
  for (std::uint64_t id = 1; id <= 10; ++id) {
    rec.record_summary(make_summary(id));  // wrapped ring holds 3..10
  }
  rec.configure({4, 4, 0, 1000000});  // shrink 8 -> 4
  auto out = rec.summaries();
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].trace_id, i + 7) << "newest four, oldest first";
  }
  // Pushes after the shrink wrap modulo the new capacity, in order.
  rec.record_summary(make_summary(11));
  rec.record_summary(make_summary(12));
  out = rec.summaries();
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].trace_id, i + 9);
  }
}

TEST(FlightRecorderTest, ReconfigureGrowKeepsOrder) {
  reqctx::FlightRecorder rec;
  rec.configure({4, 4, 0, 1000000});
  for (std::uint64_t id = 1; id <= 6; ++id) {
    rec.record_summary(make_summary(id));  // wrapped: holds 3..6
  }
  rec.configure({8, 4, 0, 1000000});  // grow 4 -> 8
  rec.record_summary(make_summary(7));
  const auto out = rec.summaries();
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].trace_id, i + 3) << "3..7, oldest first";
  }
}

TEST(FlightRecorderTest, ReconfigureShrinkEvictsBoringTracesFirst) {
  reqctx::FlightRecorder rec;
  rec.configure({16, 8, 0, 1});  // retain everything
  reqctx::RequestSummary shed = make_summary(99);
  shed.shed = true;
  rec.record_summary(shed);
  for (std::uint64_t id = 1; id <= 5; ++id) rec.record_summary(make_summary(id));
  EXPECT_EQ(rec.traces_retained(), 6);
  rec.configure({16, 2, 0, 1});  // shrink the trace store 8 -> 2
  EXPECT_EQ(rec.traces_retained(), 2);
  EXPECT_TRUE(rec.has_trace(99)) << "interesting trace survives the shrink";
  EXPECT_TRUE(rec.has_trace(5)) << "newest boring trace survives";
  EXPECT_EQ(rec.traces_evicted(), 4);
}

TEST(FlightRecorderTest, InterestingRequestsSurviveEviction) {
  reqctx::FlightRecorder rec;
  rec.configure({8, 2, 0, 1});  // retain everything, capacity 2
  rec.record_summary(make_summary(1));
  rec.record_summary(make_summary(2));
  reqctx::RequestSummary expired = make_summary(3);
  expired.deadline_expired = true;
  rec.record_summary(expired);  // evicts the oldest boring trace (1)
  EXPECT_FALSE(rec.has_trace(1));
  EXPECT_TRUE(rec.has_trace(2));
  EXPECT_TRUE(rec.has_trace(3));
  rec.record_summary(make_summary(4));  // evicts 2
  reqctx::RequestSummary shed = make_summary(5);
  shed.shed = true;
  shed.http_status = 503;
  rec.record_summary(shed);  // evicts 4; the two interesting traces remain
  EXPECT_TRUE(rec.has_trace(3));
  EXPECT_TRUE(rec.has_trace(5));
  EXPECT_FALSE(rec.has_trace(4));
  EXPECT_EQ(rec.traces_retained(), 2);
  EXPECT_EQ(rec.traces_evicted(), 3);
}

TEST(FlightRecorderTest, SlowestNRatchetsTheThreshold) {
  reqctx::FlightRecorder rec;
  rec.configure({16, 8, 2, 1000000});  // slowest-2, no head sampling
  rec.record_summary(make_summary(1, 0.10));  // fills the heap
  rec.record_summary(make_summary(2, 0.20));  // fills the heap
  rec.record_summary(make_summary(3, 0.05));  // below the floor: dropped
  rec.record_summary(make_summary(4, 0.30));  // beats the floor: retained
  rec.record_summary(make_summary(5, 0.15));  // floor is now 0.20: dropped
  EXPECT_TRUE(rec.has_trace(1));
  EXPECT_TRUE(rec.has_trace(2));
  EXPECT_FALSE(rec.has_trace(3));
  EXPECT_TRUE(rec.has_trace(4));
  EXPECT_FALSE(rec.has_trace(5));
}

TEST(FlightRecorderTest, HeadSamplesOneInK) {
  reqctx::FlightRecorder rec;
  rec.configure({16, 16, 0, 4});
  for (std::uint64_t id = 1; id <= 8; ++id) rec.record_summary(make_summary(id));
  EXPECT_EQ(rec.traces_retained(), 2);  // requests 1 and 5
  const auto out = rec.summaries();
  ASSERT_EQ(out.size(), 8u);
  EXPECT_TRUE(out[0].retained);
  EXPECT_FALSE(out[1].retained);
  EXPECT_TRUE(out[4].retained);
}

TEST(FlightRecorderTest, JsonDocumentsRenderTheTrace) {
  reqctx::FlightRecorder rec;
  rec.configure({16, 16, 16, 1});
  auto ctx = std::make_unique<reqctx::RequestContext>(reqctx::next_trace_id());
  const std::uint64_t id = ctx->trace_id();
  {
    reqctx::Scope scope(ctx.get());
    trace::Span s("test.doc.span");
  }
  ctx->add_phase(Phase::kQueue, 0.001);
  ctx->add_phase(Phase::kInfer, 0.004);
  ctx->count("mg.cycles", 7);
  ctx->meta.case_name = "channel";
  ctx->meta.http_status = 200;
  ctx->meta.service_stage = "full";
  ctx->meta.wall_s = 0.005;
  ctx->finalize(trace::detail::now_us());
  rec.record(std::move(*ctx));

  std::string doc;
  ASSERT_TRUE(rec.trace_json(id, &doc));
  EXPECT_TRUE(contains(doc, "\"traceEvents\""));
  EXPECT_TRUE(contains(doc, "\"ph\": \"X\""));
  EXPECT_TRUE(contains(doc, "test.doc.span"));
  EXPECT_TRUE(contains(doc, reqctx::trace_id_hex(id)));
  EXPECT_TRUE(contains(doc, "\"deadline_expired\": false"));
  EXPECT_TRUE(contains(doc, "queue_ms"));
  EXPECT_TRUE(contains(doc, "mg.cycles"));

  const std::string listing = rec.requests_json();
  EXPECT_TRUE(contains(listing, "\"recorded\": 1"));
  EXPECT_TRUE(contains(listing, reqctx::trace_id_hex(id)));
  EXPECT_TRUE(contains(listing, "/trace/"));
  EXPECT_TRUE(contains(listing, "\"retained\": true"));

  EXPECT_FALSE(rec.trace_json(0x1234u, &doc)) << "unknown id must 404";
}

TEST(FlightRecorderTest, QueueEventStartsAtAdmission) {
  reqctx::FlightRecorder rec;
  rec.configure({16, 16, 0, 1});
  reqctx::RequestSummary s = make_summary(7);
  // serving rebases start_us back to admission time before recording, so
  // the synthetic queue slice must start AT start_us (inside the root
  // request event), not another queue-width before it.
  s.start_us = 1000000;
  s.end_us = 1005000;
  s.wall_s = 0.005;
  s.phase_s[static_cast<int>(Phase::kQueue)] = 0.002;
  rec.record_summary(s);
  std::string doc;
  ASSERT_TRUE(rec.trace_json(7, &doc));
  EXPECT_TRUE(contains(doc,
                       "\"name\": \"queue\", \"cat\": \"phase\", "
                       "\"ph\": \"X\", \"ts\": 1000000, \"dur\": 2000"));
  EXPECT_FALSE(contains(doc, "\"ts\": 998000"))
      << "queue slice must not render before admission";
}

TEST(FlightRecorderTest, ShedSummaryIsRetainedWithoutSpans) {
  reqctx::FlightRecorder rec;
  rec.configure({16, 16, 0, 1000000});
  reqctx::RequestSummary shed = make_summary(42);
  shed.shed = true;
  shed.http_status = 503;
  shed.service_stage = "shed";
  rec.record_summary(shed);
  EXPECT_TRUE(rec.has_trace(42));
  std::string doc;
  ASSERT_TRUE(rec.trace_json(42, &doc));
  EXPECT_TRUE(contains(doc, "\"shed\": true"));
  EXPECT_TRUE(contains(rec.requests_json(), "\"retained\": true"));
}

// --- attribution under concurrency (the TSan target) ------------------------

// Two-plus concurrent requests: each thread binds its own context, builds a
// nested span tree, and attributes its work through per-iteration scopes
// of its own phase. The trees must stay disjoint (a thread only ever sees
// its own spans) and each context's phase sum must track that thread's
// measured wall — the same contract bench_serving gates as
// accept/attribution_sums_to_wall.
TEST(ReqctxConcurrency, ConcurrentContextsStayDisjointAndSumToWall) {
  constexpr int kThreads = 4;
  constexpr int kIters = 64;
  constexpr double kWorkSeconds = 100e-6;
  static const char* kOuter[kThreads] = {"test.t0.outer", "test.t1.outer",
                                         "test.t2.outer", "test.t3.outer"};
  static const char* kInner[kThreads] = {"test.t0.inner", "test.t1.inner",
                                         "test.t2.inner", "test.t3.inner"};
  static const char* kCounterName[kThreads] = {"test.t0.work", "test.t1.work",
                                               "test.t2.work", "test.t3.work"};
  const Phase phase_for[kThreads] = {Phase::kInfer, Phase::kMomentum,
                                     Phase::kPressure, Phase::kSa};

  struct Result {
    std::uint64_t id = 0;
    double wall_s = 0.0;
    double attributed_s = 0.0;
    bool armed_while_bound = false;
    bool tree_ok = false;
    bool counters_ok = false;
    double own_phase_s = 0.0;
    double other_phase_s = 0.0;
  };
  reqctx::FlightRecorder rec;
  rec.configure({16, 16, 0, 1});
  Result results[kThreads];

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ctx =
          std::make_unique<reqctx::RequestContext>(reqctx::next_trace_id());
      Result& r = results[t];
      r.id = ctx->trace_id();
      const trace::Site outer_site{kOuter[t], nullptr, phase_for[t]};
      WallTimer wall;
      {
        reqctx::Scope scope(ctx.get());
        r.armed_while_bound = reqctx::armed();
        for (int i = 0; i < kIters; ++i) {
          trace::Span outer(outer_site);
          ctx->count(kCounterName[t], 1);
          trace::Span inner(kInner[t]);
          burn(kWorkSeconds);
        }
      }
      r.wall_s = wall.seconds();
      r.attributed_s = ctx->meta.attributed_seconds();
      r.own_phase_s = ctx->phase_seconds(phase_for[t]);
      for (int o = 0; o < kThreads; ++o) {
        if (o != t) r.other_phase_s += ctx->phase_seconds(phase_for[o]);
      }
      r.tree_ok = ctx->spans().size() == 2u * kIters;
      for (std::size_t i = 0; r.tree_ok && i < ctx->spans().size(); i += 2) {
        const reqctx::SpanNode& outer = ctx->spans()[i];
        const reqctx::SpanNode& inner = ctx->spans()[i + 1];
        r.tree_ok = outer.name == kOuter[t] && outer.parent == -1 &&
                    inner.name == kInner[t] &&
                    inner.parent == static_cast<int>(i);
      }
      r.counters_ok = ctx->counters().size() == 1u &&
                      ctx->counters()[0].name == kCounterName[t] &&
                      ctx->counters()[0].delta == kIters;
      ctx->meta.http_status = 200;
      ctx->meta.wall_s = r.wall_s;
      ctx->finalize(trace::detail::now_us());
      rec.record(std::move(*ctx));
    });
  }
  for (std::thread& th : threads) th.join();

  std::set<std::uint64_t> ids;
  for (int t = 0; t < kThreads; ++t) {
    const Result& r = results[t];
    EXPECT_TRUE(ids.insert(r.id).second) << "trace ids must be unique";
    EXPECT_TRUE(r.armed_while_bound);
    EXPECT_TRUE(r.tree_ok) << "thread " << t << " saw a foreign span";
    EXPECT_TRUE(r.counters_ok) << "thread " << t << " counter crosstalk";
    EXPECT_DOUBLE_EQ(r.other_phase_s, 0.0)
        << "thread " << t << " phase crosstalk";
    // The per-iteration scopes cover everything but loop overhead, so the
    // phase sum tracks this thread's wall (5% + 10 ms absorbs scheduler
    // noise under TSan; the serving bench gates the tight 5% + 2 ms).
    EXPECT_GT(r.own_phase_s, 0.0);
    EXPECT_NEAR(r.attributed_s, r.wall_s, 0.05 * r.wall_s + 0.01);
    EXPECT_LE(r.attributed_s, r.wall_s * 1.05 + 0.01);
  }
  EXPECT_EQ(rec.recorded(), kThreads);
  EXPECT_EQ(rec.traces_retained(), kThreads);
  // Rendered trees stay disjoint after hand-off to the recorder too: each
  // document mentions its own spans, never another thread's.
  for (int t = 0; t < kThreads; ++t) {
    std::string doc;
    ASSERT_TRUE(rec.trace_json(results[t].id, &doc));
    EXPECT_TRUE(contains(doc, kOuter[t]));
    for (int o = 0; o < kThreads; ++o) {
      if (o != t) {
        EXPECT_FALSE(contains(doc, kOuter[o]));
      }
    }
  }
}

#ifdef ADARNET_TEST_SOCKETS

// --- end to end through the serving layer -----------------------------------

namespace serving = adarnet::util::serving;
namespace socket_io = adarnet::util::socket_io;
namespace fault = adarnet::util::fault;

serving::ServingConfig tiny_config() {
  serving::ServingConfig cfg;
  cfg.wall_preset = adarnet::data::GridPreset{8, 32, 4, 4};
  cfg.body_preset = adarnet::data::GridPreset{8, 32, 4, 4};
  cfg.workers = 2;
  cfg.queue_capacity = 4;
  cfg.io_timeout_ms = 300;
  cfg.solver.max_outer = 20;
  cfg.solver.tol = 5e-4;
  return cfg;
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string http(int port, const std::string& verb, const std::string& path,
                 const std::string& body = "") {
  const int fd = connect_loopback(port);
  if (fd < 0) return "";
  std::string msg = verb + " " + path + " HTTP/1.1\r\nHost: t\r\n";
  if (!body.empty()) {
    msg += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  msg += "\r\n" + body;
  if (!socket_io::send_all(fd, msg)) {
    ::close(fd);
    return "";
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = socket_io::recv_retry(fd, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

// Value of a quoted string field in a response body ("" when absent).
std::string body_field(const std::string& r, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = r.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  const std::size_t end = r.find('"', start);
  if (end == std::string::npos) return "";
  return r.substr(start, end - start);
}

TEST(ReqctxServing, ConcurrentSolvesGetDisjointRecordedTraces) {
  fault::reset();
  reqctx::recorder().clear();
  serving::Server server(tiny_config());
  ASSERT_TRUE(server.start());
  const int port = server.bound_port();

  std::string responses[2];
  std::thread a([&] {
    responses[0] =
        http(port, "POST", "/solve", "{\"case\": \"channel\", \"re\": 500}");
  });
  std::thread b([&] {
    responses[1] =
        http(port, "POST", "/solve", "{\"case\": \"flat_plate\", \"re\": 900}");
  });
  a.join();
  b.join();
  server.stop();

  std::uint64_t ids[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(contains(responses[i], "200 OK")) << responses[i];
    const std::string hex = body_field(responses[i], "trace_id");
    ASSERT_FALSE(hex.empty()) << "response must echo its trace id";
    ASSERT_TRUE(reqctx::parse_trace_id(hex, &ids[i]));
  }
  EXPECT_NE(ids[0], ids[1]);

  // Both requests landed in the process recorder with their own summary and
  // retained span tree (the first slowest-N requests are always retained).
  int found = 0;
  for (const reqctx::RequestSummary& s : reqctx::recorder().summaries()) {
    for (int i = 0; i < 2; ++i) {
      if (s.trace_id != ids[i]) continue;
      ++found;
      EXPECT_EQ(s.http_status, 200);
      EXPECT_FALSE(s.shed);
      EXPECT_GT(s.wall_s, 0.0);
      // Loose end-to-end gate (this suite also runs under TSan on shared
      // runners); bench_serving gates the tight 5% + 2 ms contract.
      EXPECT_NEAR(s.attributed_seconds(), s.wall_s, 0.10 * s.wall_s + 0.05);
    }
  }
  EXPECT_EQ(found, 2);
  for (int i = 0; i < 2; ++i) {
    std::string doc;
    ASSERT_TRUE(reqctx::recorder().trace_json(ids[i], &doc));
    EXPECT_TRUE(contains(doc, "\"traceEvents\""));
    EXPECT_TRUE(contains(doc, reqctx::trace_id_hex(ids[i])));
    EXPECT_FALSE(contains(doc, reqctx::trace_id_hex(ids[1 - i])));
  }
  reqctx::recorder().clear();
}

#endif  // ADARNET_TEST_SOCKETS

}  // namespace
