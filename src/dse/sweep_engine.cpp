#include "dse/sweep_engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gnndse::dse {

using hlssim::DesignConfig;

double ranking_score(const RankedDesign& d, double util_threshold) {
  double score = d.predicted[model::kLatency];
  if (d.p_valid < 0.5f) score -= 100.0;
  const double worst_util =
      std::max({d.predicted[model::kDsp], d.predicted[model::kLut],
                d.predicted[model::kFf], d.predicted[model::kBram]});
  if (worst_util >= util_threshold)
    score -= 10.0 * (worst_util - util_threshold + 0.1);
  return score;
}

namespace {

float sigmoidf(float x) {
  return x >= 0 ? 1.0f / (1.0f + std::exp(-x))
                : std::exp(x) / (1.0f + std::exp(x));
}

std::int64_t micros(double ms) {
  return static_cast<std::int64_t>(ms * 1000.0);
}

}  // namespace

SweepEngine::SweepEngine(const ModelBundle& models,
                         model::SampleFactory& factory,
                         const kir::Kernel& kernel,
                         const SweepEngineOptions& opts)
    : models_(models), factory_(factory), kernel_(kernel), opts_(opts) {
  if (opts_.chunk < 1)
    throw std::invalid_argument("SweepEngine: chunk must be >= 1");
  if (opts_.keep == 0)
    throw std::invalid_argument("SweepEngine: keep must be >= 1");
  pending_.reserve(static_cast<std::size_t>(opts_.chunk));
  worker_ = std::thread([this] { worker_loop(); });
}

SweepEngine::~SweepEngine() {
  stop_worker();
  // Park the leased batch skeletons for the next sweep of this kernel.
  for (Slot& s : slots_)
    if (s.batch) factory_.release_slot(std::move(s.batch));
}

void SweepEngine::rethrow_pending_error() {
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(mu_);
    err = error_;
  }
  if (err) std::rethrow_exception(err);
}

void SweepEngine::push(DesignConfig&& cfg) {
  pending_.push_back(std::move(cfg));
  if (pending_.size() >= static_cast<std::size_t>(opts_.chunk)) dispatch();
}

void SweepEngine::dispatch() {
  if (pending_.empty()) return;
  if (cancelled()) {
    // Drop work that never reached a batch; in-flight chunks still finish.
    pending_.clear();
    return;
  }
  rethrow_pending_error();
  Slot& s = slots_[static_cast<std::size_t>(fill_idx_)];
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_to_producer_.wait(lock, [&] { return !s.ready; });
  }
  s.configs = std::move(pending_);
  pending_ = {};
  pending_.reserve(static_cast<std::size_t>(opts_.chunk));
  s.first_seq = next_seq_;
  next_seq_ += s.configs.size();
  featurize_slot(s);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.ready = true;
    ++dispatched_chunks_;
  }
  cv_to_consumer_.notify_one();
  fill_idx_ ^= 1;
}

void SweepEngine::featurize_slot(Slot& s) {
  static obs::Histogram& h_feat = obs::histogram("dse.featurize_chunk_ms");
  util::Timer t;
  // Lease (or reuse) a batch skeleton sized for this chunk and rewrite its
  // pragma slots. The lease is private to this engine, so the consumer can
  // predict from the other slot concurrently.
  if (!s.batch || s.batch->size != s.configs.size()) {
    if (s.batch) factory_.release_slot(std::move(s.batch));
    s.batch = factory_.acquire_slot(kernel_, s.configs.size());
  }
  factory_.write_slot(kernel_, s.configs, *s.batch);
  const double ms = t.millis();
  obs::observe(h_feat, ms);
  feat_us_.fetch_add(micros(ms), std::memory_order_relaxed);
}

void SweepEngine::score_slot(Slot& s) {
  static obs::Histogram& h_pred = obs::histogram("dse.predict_chunk_ms");
  static obs::Histogram& h_rank = obs::histogram("dse.frontier_keep_ms");
  static obs::Counter& c_pruned = obs::counter("dse.pruned_by_classifier");
  static obs::Counter& c_explored = obs::counter("dse.configs_explored");
  static obs::Gauge& g_elapsed = obs::gauge("dse.search_elapsed_seconds");
  static obs::Gauge& g_frontier = obs::gauge("dse.frontier_size");
  static obs::Gauge& g_overlap = obs::gauge("dse.pipeline.overlap_ratio");

  // The three heads fan out as pool tasks (inline, in head order, with one
  // lane). Each output borrows its trainer's inference workspace — three
  // distinct sessions, so all three stay valid through the fill loop.
  util::Timer pred_timer;
  const std::array<model::Trainer*, 3> heads{
      models_.regression_main, models_.regression_bram, models_.classifier};
  std::array<const tensor::Tensor*, 3> outs{};
  model::predict_batch_concurrent(heads, s.batch->batch, outs);
  const tensor::Tensor& main_pred = *outs[0];
  const tensor::Tensor& bram_pred = *outs[1];
  const tensor::Tensor& valid_pred = *outs[2];
  {
    const double ms = pred_timer.millis();
    obs::observe(h_pred, ms);
    pred_us_.fetch_add(micros(ms), std::memory_order_relaxed);
  }

  util::Timer rank_timer;
  std::int64_t pruned = 0;
  frontier_.reserve(frontier_.size() + s.configs.size());
  for (std::size_t i = 0; i < s.configs.size(); ++i) {
    Scored sc;
    sc.d.config = std::move(s.configs[i]);
    const auto row = static_cast<std::int64_t>(i);
    sc.d.predicted[model::kLatency] = main_pred.at(row, 0);
    sc.d.predicted[model::kDsp] = main_pred.at(row, 1);
    sc.d.predicted[model::kLut] = main_pred.at(row, 2);
    sc.d.predicted[model::kFf] = main_pred.at(row, 3);
    sc.d.predicted[model::kBram] = bram_pred.at(row, 0);
    sc.d.p_valid = sigmoidf(valid_pred.at(row, 0));
    if (sc.d.p_valid < 0.5f) ++pruned;
    sc.score = ranking_score(sc.d, opts_.util_threshold);
    sc.seq = s.first_seq + i;
    frontier_.push_back(std::move(sc));
  }
  keep_top();
  const std::uint64_t scored =
      num_scored_.fetch_add(s.configs.size(), std::memory_order_relaxed) +
      s.configs.size();
  {
    const double ms = rank_timer.millis();
    obs::observe(h_rank, ms);
    rank_us_.fetch_add(micros(ms), std::memory_order_relaxed);
  }

  obs::add(c_pruned, pruned);
  obs::add(c_explored, static_cast<std::int64_t>(s.configs.size()));
  const double wall_s = timer_.seconds();
  obs::set(g_elapsed, wall_s);
  obs::set(g_frontier, static_cast<double>(frontier_.size()));
  if (wall_s > 0) {
    const double stage_us = static_cast<double>(
        feat_us_.load(std::memory_order_relaxed) +
        pred_us_.load(std::memory_order_relaxed) +
        rank_us_.load(std::memory_order_relaxed));
    obs::set(g_overlap, stage_us / (wall_s * 1e6));
    obs::set(obs::gauge("dse.sweep_configs_per_sec"),
             static_cast<double>(scored) / wall_s);
  }
}

void SweepEngine::keep_top() {
  if (frontier_.size() <= opts_.keep) return;
  // Bounded frontier: a design outside the best `keep` so far can never
  // re-enter the final top `keep`, so truncating per chunk is exact.
  // Average O(n) nth_element instead of a full sort per chunk.
  const auto kth =
      frontier_.begin() + static_cast<std::ptrdiff_t>(opts_.keep);
  std::nth_element(frontier_.begin(), kth, frontier_.end(),
                   [&](const Scored& a, const Scored& b) {
                     return better(a, b);
                   });
  frontier_.resize(opts_.keep);
}

void SweepEngine::worker_loop() {
  obs::set_thread_name("sweep-score");
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Slot& s = slots_[static_cast<std::size_t>(score_idx_)];
    cv_to_consumer_.wait(
        lock, [&] { return stop_ || slots_[static_cast<std::size_t>(
                                              score_idx_)].ready; });
    if (!slots_[static_cast<std::size_t>(score_idx_)].ready) return;  // stop
    lock.unlock();
    std::exception_ptr err;
    try {
      score_slot(s);
    } catch (...) {
      err = std::current_exception();
    }
    s.configs.clear();
    lock.lock();
    s.ready = false;
    if (err && !error_) error_ = err;
    ++scored_chunks_;
    score_idx_ ^= 1;
    cv_to_producer_.notify_all();
  }
}

void SweepEngine::barrier() {
  dispatch();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_to_producer_.wait(
        lock, [&] { return scored_chunks_ == dispatched_chunks_; });
  }
  rethrow_pending_error();
}

std::vector<DesignConfig> SweepEngine::top_configs(std::size_t n) {
  barrier();
  // Post-barrier the consumer is idle, so reading the frontier is ordered
  // by the scored_chunks_ handshake.
  std::vector<std::size_t> idx(frontier_.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  const std::size_t k = std::min(n, idx.size());
  std::partial_sort(idx.begin(),
                    idx.begin() + static_cast<std::ptrdiff_t>(k), idx.end(),
                    [&](std::size_t a, std::size_t b) {
                      return better(frontier_[a], frontier_[b]);
                    });
  std::vector<DesignConfig> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i)
    out.push_back(frontier_[idx[i]].d.config);
  return out;
}

std::vector<RankedDesign> SweepEngine::finish() {
  barrier();
  stop_worker();
  std::sort(frontier_.begin(), frontier_.end(),
            [&](const Scored& a, const Scored& b) { return better(a, b); });
  const double wall_ms = timer_.millis();
  stats_.featurize_ms =
      static_cast<double>(feat_us_.load(std::memory_order_relaxed)) / 1e3;
  stats_.predict_ms =
      static_cast<double>(pred_us_.load(std::memory_order_relaxed)) / 1e3;
  stats_.rank_ms =
      static_cast<double>(rank_us_.load(std::memory_order_relaxed)) / 1e3;
  stats_.wall_ms = wall_ms;
  stats_.chunks = dispatched_chunks_;
  stats_.overlap_ratio =
      wall_ms > 0
          ? (stats_.featurize_ms + stats_.predict_ms + stats_.rank_ms) /
                wall_ms
          : 0.0;
  obs::set(obs::gauge("dse.pipeline.overlap_ratio"), stats_.overlap_ratio);
  if (wall_ms > 0)
    obs::set(obs::gauge("dse.sweep_configs_per_sec"),
             static_cast<double>(num_scored()) / (wall_ms / 1e3));
  std::vector<RankedDesign> out;
  out.reserve(frontier_.size());
  for (Scored& sc : frontier_) out.push_back(std::move(sc.d));
  frontier_.clear();
  return out;
}

void SweepEngine::stop_worker() {
  if (!worker_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_to_consumer_.notify_all();
  worker_.join();
}

}  // namespace gnndse::dse
