// Pipelined sweep engine: bit-identity against a brute-force ranking (every
// config featurized alone, predicted on the autodiff tape, stable-sorted)
// across thread counts, beam-refresh reads mid-stream, deterministic
// budgets, prompt cancellation, and a shared-factory stress case
// (tsan-labeled). Kept cheap: tiny models, small budgets.
#include "dse/dse.hpp"
#include "dse/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "dspace/design_space.hpp"
#include "kernels/kernels.hpp"
#include "oracle/evaluator.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace gnndse::dse {
namespace {

PipelineOptions tiny_pipeline() {
  PipelineOptions po;
  po.main_epochs = 4;
  po.bram_epochs = 2;
  po.classifier_epochs = 2;
  po.hidden = 16;
  po.gnn_layers = 3;
  return po;
}

db::Database tiny_db(const std::vector<kir::Kernel>& kernels, int budget) {
  oracle::SimEvaluator hls;
  util::Rng rng(33);
  return db::generate_initial_database(
      kernels, hls, rng, [budget](const std::string&) { return budget; });
}

/// Restores the env-default pool even when an assertion bails out early.
struct ThreadGuard {
  ~ThreadGuard() { util::set_parallel_threads(0); }
};

std::uint32_t float_bits(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

void expect_same_ranked(const std::vector<RankedDesign>& a,
                        const std::vector<RankedDesign>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("rank " + std::to_string(i));
    EXPECT_EQ(a[i].config.key(), b[i].config.key());
    for (std::size_t j = 0; j < model::kNumObjectives; ++j)
      EXPECT_EQ(float_bits(a[i].predicted[j]), float_bits(b[i].predicted[j]));
    EXPECT_EQ(float_bits(a[i].p_valid), float_bits(b[i].p_valid));
  }
}

/// Every config featurized on its own (factory.featurize, no batch
/// skeleton) and predicted by the three heads on the autodiff tape, in
/// input order — an oracle independent of the engine's fast path.
std::vector<RankedDesign> tape_predictions(
    const ModelBundle& models, model::SampleFactory& factory,
    const kir::Kernel& kernel,
    const std::vector<hlssim::DesignConfig>& configs) {
  std::vector<gnn::GraphData> graphs;
  graphs.reserve(configs.size());
  for (const auto& cfg : configs)
    graphs.push_back(factory.featurize(kernel, cfg));
  std::vector<const gnn::GraphData*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  const tensor::Tensor main = models.regression_main->predict_graphs_tape(ptrs);
  const tensor::Tensor bram = models.regression_bram->predict_graphs_tape(ptrs);
  const tensor::Tensor valid = models.classifier->predict_graphs_tape(ptrs);
  std::vector<RankedDesign> out(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto row = static_cast<std::int64_t>(i);
    RankedDesign& d = out[i];
    d.config = configs[i];
    d.predicted[model::kLatency] = main.at(row, 0);
    d.predicted[model::kDsp] = main.at(row, 1);
    d.predicted[model::kLut] = main.at(row, 2);
    d.predicted[model::kFf] = main.at(row, 3);
    d.predicted[model::kBram] = bram.at(row, 0);
    // Overflow-safe logistic, the same expression the engine applies to
    // the classifier logit.
    const float x = valid.at(row, 0);
    d.p_valid = x >= 0 ? 1.0f / (1.0f + std::exp(-x))
                       : std::exp(x) / (1.0f + std::exp(x));
  }
  return out;
}

/// Brute-force ranking of the first `n` predictions: stable sort by
/// ranking_score descending, so ties keep push order.
std::vector<RankedDesign> brute_force_rank(
    const std::vector<RankedDesign>& predicted, std::size_t n,
    double util_threshold) {
  std::vector<RankedDesign> out(predicted.begin(),
                                predicted.begin() +
                                    static_cast<std::ptrdiff_t>(n));
  std::stable_sort(out.begin(), out.end(),
                   [&](const RankedDesign& a, const RankedDesign& b) {
                     return ranking_score(a, util_threshold) >
                            ranking_score(b, util_threshold);
                   });
  return out;
}

/// `top` followed by `reserve`: the engine's whole sorted frontier.
std::vector<RankedDesign> frontier_of(const DseResult& r) {
  std::vector<RankedDesign> all = r.top;
  all.insert(all.end(), r.reserve.begin(), r.reserve.end());
  return all;
}

void expect_same_result(const DseResult& a, const DseResult& b) {
  EXPECT_EQ(a.num_explored, b.num_explored);
  {
    SCOPED_TRACE("top");
    expect_same_ranked(a.top, b.top);
  }
  {
    SCOPED_TRACE("reserve");
    expect_same_ranked(a.reserve, b.reserve);
  }
}

class SweepFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    kernels_ = {kernels::make_kernel("gemm-ncubed"),
                kernels::make_kernel("spmv-crs")};
    database_ = tiny_db(kernels_, 150);
    models_ = std::make_unique<TrainedModels>(database_, kernels_, factory_,
                                              tiny_pipeline());
    dse_ = std::make_unique<ModelDse>(models_->bundle(),
                                      models_->normalizer(), factory_);
  }

  std::vector<kir::Kernel> kernels_;
  db::Database database_;
  model::SampleFactory factory_;
  std::unique_ptr<TrainedModels> models_;
  std::unique_ptr<ModelDse> dse_;
};

TEST_F(SweepFixture, ExhaustiveMatchesBruteForceAcrossThreads) {
  // The sweep contract: the exhaustive sweep's ranked frontier (top, then
  // reserve) is the brute-force tape ranking of the whole space, bit for
  // bit, at every thread count. doitgen's 891 configs leave a partial last
  // chunk and overflow the bounded frontier.
  const kir::Kernel doitgen = kernels::make_kernel("doitgen");
  std::vector<hlssim::DesignConfig> space_configs;
  factory_.space(doitgen).for_each([&](hlssim::DesignConfig&& cfg) {
    space_configs.push_back(std::move(cfg));
    return true;
  });
  DseOptions opts;
  opts.top_m = 5;
  ASSERT_LE(space_configs.size(), opts.max_exhaustive);
  const std::vector<RankedDesign> predicted = tape_predictions(
      models_->bundle(), factory_, doitgen, space_configs);
  std::vector<RankedDesign> ref = brute_force_rank(
      predicted, predicted.size(), opts.util_threshold);
  // The engine keeps a bounded frontier of max(top_m, beam_width) * 4.
  ref.resize(std::min(
      ref.size(),
      static_cast<std::size_t>(std::max(opts.top_m, opts.beam_width)) * 4));
  ASSERT_LT(ref.size(), space_configs.size());

  ThreadGuard guard;
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::set_parallel_threads(threads);
    util::Rng rng(3);
    const DseResult r = dse_->run(doitgen, opts, rng);
    EXPECT_EQ(r.num_explored, space_configs.size());
    EXPECT_EQ(r.top.size(), static_cast<std::size_t>(opts.top_m));
    expect_same_ranked(ref, frontier_of(r));
  }
}

TEST_F(SweepFixture, BeamRefreshMatchesBruteForcePrefix) {
  // Drive the engine directly with a known config stream: 300 configs in
  // chunks of 64 (the last one partial) under a 40-design frontier.
  // top_configs() mid-stream (the beam refresh) must return the leaders of
  // the prefix pushed so far, and finish() the leaders of the whole stream.
  const kir::Kernel doitgen = kernels::make_kernel("doitgen");
  std::vector<hlssim::DesignConfig> stream;
  factory_.space(doitgen).for_each([&](hlssim::DesignConfig&& cfg) {
    stream.push_back(std::move(cfg));
    return stream.size() < 300;
  });
  ASSERT_EQ(stream.size(), 300u);
  const std::vector<RankedDesign> predicted =
      tape_predictions(models_->bundle(), factory_, doitgen, stream);

  SweepEngineOptions eo;
  eo.chunk = 64;
  eo.keep = 40;
  const std::size_t mid = 150;  // two full chunks + a partial one
  const std::size_t beam = 10;
  const std::vector<RankedDesign> ref_mid =
      brute_force_rank(predicted, mid, eo.util_threshold);
  std::vector<RankedDesign> ref_all =
      brute_force_rank(predicted, stream.size(), eo.util_threshold);
  ref_all.resize(eo.keep);

  ThreadGuard guard;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::set_parallel_threads(threads);
    SweepEngine engine(models_->bundle(), factory_, doitgen, eo);
    for (std::size_t i = 0; i < mid; ++i)
      engine.push(hlssim::DesignConfig(stream[i]));
    const std::vector<hlssim::DesignConfig> leaders = engine.top_configs(beam);
    EXPECT_EQ(engine.num_scored(), mid);
    ASSERT_EQ(leaders.size(), beam);
    for (std::size_t i = 0; i < beam; ++i)
      EXPECT_EQ(leaders[i].key(), ref_mid[i].config.key()) << "leader " << i;
    for (std::size_t i = mid; i < stream.size(); ++i)
      engine.push(hlssim::DesignConfig(stream[i]));
    const std::vector<RankedDesign> ranked = engine.finish();
    EXPECT_EQ(engine.num_scored(), stream.size());
    expect_same_ranked(ref_all, ranked);
  }
}

TEST_F(SweepFixture, HeuristicIdenticalUnderDeterministicBudget) {
  // max_configs pins the heuristic path (beam + random phases) to an exact
  // candidate stream, so every thread count must match the 1-thread run.
  const kir::Kernel& gemm = kernels_[0];
  ThreadGuard guard;
  DseOptions opts;
  opts.top_m = 5;
  opts.max_exhaustive = 100;  // force the heuristic path
  opts.time_limit_seconds = 1e9;
  opts.max_configs = 600;
  util::set_parallel_threads(1);
  util::Rng rng_ref(3);
  const DseResult ref = dse_->run(gemm, opts, rng_ref);
  EXPECT_EQ(ref.num_explored, 600u);
  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::set_parallel_threads(threads);
    util::Rng rng(3);
    const DseResult r = dse_->run(gemm, opts, rng);
    expect_same_result(ref, r);
  }
}

TEST_F(SweepFixture, MaxConfigsBudgetIsExact) {
  const kir::Kernel& spmv = kernels_[1];
  dspace::DesignSpace space(spmv);
  ASSERT_GT(space.pruned_size(), 50u);  // the cap must actually bind
  DseOptions opts;
  opts.top_m = 5;
  opts.max_configs = 50;
  util::Rng rng(3);
  const DseResult r = dse_->run(spmv, opts, rng);
  EXPECT_EQ(r.num_explored, 50u);
  EXPECT_FALSE(r.cancelled);
}

TEST_F(SweepFixture, PreCancelledRunReturnsImmediately) {
  // The for_each early-exit satellite: with the flag already set, the run
  // must return without decoding the space (the old enumeration kept
  // walking every raw index after cancel).
  kir::Kernel big = kernels::make_kernel("gemm-blocked");
  DseOptions opts;
  opts.max_exhaustive = std::numeric_limits<std::uint64_t>::max();
  opts.time_limit_seconds = 1e9;
  std::atomic<bool> cancel{true};
  opts.cancel = &cancel;
  util::Rng rng(3);
  util::Timer t;
  const DseResult r = dse_->run(big, opts, rng);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.num_explored, 0u);
  EXPECT_TRUE(r.top.empty());
  EXPECT_LT(t.seconds(), 5.0);
}

TEST_F(SweepFixture, CancelMidPipelineDrainsCleanly) {
  // Cancel raised while chunks are in flight: the engine drops pending
  // work, finishes what was dispatched, and returns a consistent ranking.
  kir::Kernel big = kernels::make_kernel("gemm-blocked");
  dspace::DesignSpace space(big);
  DseOptions opts;
  opts.top_m = 5;
  opts.max_exhaustive = std::numeric_limits<std::uint64_t>::max();
  opts.time_limit_seconds = 1e9;
  std::atomic<bool> cancel{false};
  opts.cancel = &cancel;
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    cancel.store(true);
  });
  util::Rng rng(3);
  util::Timer t;
  const DseResult r = dse_->run(big, opts, rng);
  killer.join();
  EXPECT_TRUE(r.cancelled);
  EXPECT_LT(r.num_explored, space.pruned_size());
  EXPECT_LT(t.seconds(), 30.0);
  // Whatever was scored before the cancel is still ranked best-first.
  for (std::size_t i = 1; i < r.top.size(); ++i)
    EXPECT_GE(ranking_score(r.top[i - 1], opts.util_threshold),
              ranking_score(r.top[i], opts.util_threshold));
}

TEST_F(SweepFixture, StageStatsAreReported) {
  const kir::Kernel& spmv = kernels_[1];
  DseOptions opts;
  opts.top_m = 5;
  util::Rng rng(3);
  const DseResult r = dse_->run(spmv, opts, rng);
  EXPECT_GT(r.stages.chunks, 0u);
  EXPECT_GT(r.stages.wall_ms, 0.0);
  EXPECT_GT(r.stages.predict_ms, 0.0);
  EXPECT_GE(r.stages.featurize_ms, 0.0);
  EXPECT_GT(r.stages.overlap_ratio, 0.0);
}

TEST_F(SweepFixture, SweepIdenticalUnderConcurrentFactoryTraffic) {
  // The serve daemon runs sweeps while predict traffic featurizes through
  // factories concurrently. Hammer this factory's template cache and batch
  // slot pool from two threads during a sweep: the result must still match
  // the same sweep run quietly (and TSan must stay quiet — this binary is
  // in the tsan label).
  const kir::Kernel& spmv = kernels_[1];
  const kir::Kernel& gemm = kernels_[0];
  ThreadGuard guard;
  util::set_parallel_threads(2);
  DseOptions opts;
  opts.top_m = 5;
  util::Rng rng_ref(3);
  const DseResult ref = dse_->run(spmv, opts, rng_ref);

  std::atomic<bool> stop{false};
  auto fire = [&](const kir::Kernel& k) {
    const auto neutral = hlssim::DesignConfig::neutral(k);
    while (!stop.load(std::memory_order_relaxed)) {
      (void)factory_.featurize(k, neutral);
      auto slot = factory_.acquire_slot(k, 3);
      const std::vector<hlssim::DesignConfig> cfgs(3, neutral);
      factory_.write_slot(k, cfgs, *slot);
      factory_.release_slot(std::move(slot));
    }
  };
  std::thread t1(fire, std::cref(spmv));
  std::thread t2(fire, std::cref(gemm));
  util::Rng rng(3);
  const DseResult r = dse_->run(spmv, opts, rng);
  stop.store(true);
  t1.join();
  t2.join();
  expect_same_result(ref, r);
}

}  // namespace
}  // namespace gnndse::dse
