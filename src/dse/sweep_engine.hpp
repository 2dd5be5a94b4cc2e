// Pipelined sweep engine: the scoring core of model-driven DSE.
//
// Each chunk of candidate configs passes three stages — featurize
// (pragma-slot rewrite of a leased GraphBatch), predict (three model
// heads), rank (bounded top-K frontier). The engine overlaps them:
//
//   producer (search thread)            consumer (scoring thread)
//   ------------------------            -------------------------
//   enumerate / beam-expand
//   featurize chunk N+1  ───slots[2]──►  predict chunk N (3 heads as
//                                          parallel pool tasks)
//                                        rank chunk N (bounded top-K
//                                          frontier, nth_element keep)
//
// Two leased SampleFactory batch slots double-buffer the chunks, so the
// producer writes slot A while the consumer predicts from slot B. The
// ranked output is the brute-force ranking — every config predicted on
// the tape, stable-sorted by (score desc, push order asc) — bit for bit
// at every thread count (enforced by tests/test_sweep.cpp): per-row
// predictions are independent of batch composition, the frontier orders
// by a strict total order (score desc, then push sequence asc), and a
// bounded keep can never evict a design that would make the final top-K.
//
// Telemetry: per-stage histograms `dse.featurize_chunk_ms`,
// `dse.predict_chunk_ms`, `dse.frontier_keep_ms`, live gauges
// `dse.pipeline.overlap_ratio` (sum of stage time / wall time — > 1 means
// stages genuinely overlap) and `dse.sweep_configs_per_sec`, plus the
// `dse.search_elapsed_seconds` / `dse.frontier_size` /
// `dse.configs_explored` progress metrics the serve daemon's heartbeat and
// poll responses read while a sweep job runs.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "model/dataset.hpp"
#include "model/trainer.hpp"
#include "util/timer.hpp"

namespace gnndse::dse {

/// Bundles the three trained models GNN-DSE uses at inference time.
struct ModelBundle {
  model::Trainer* regression_main;  // latency/DSP/LUT/FF
  model::Trainer* regression_bram;  // BRAM
  model::Trainer* classifier;       // valid/invalid
};

struct RankedDesign {
  hlssim::DesignConfig config;
  /// Predicted normalized objectives (Objective order).
  std::array<float, model::kNumObjectives> predicted{};
  /// Classifier probability that the design is valid.
  float p_valid = 0.0f;
};

/// Ranking key: predicted-valid designs that fit come first, ordered by
/// predicted latency target (higher = faster design).
double ranking_score(const RankedDesign& d, double util_threshold);

/// Per-stage wall-clock breakdown of one sweep, reported on DseResult.
struct SweepStageStats {
  double featurize_ms = 0.0;
  double predict_ms = 0.0;
  double rank_ms = 0.0;
  double wall_ms = 0.0;
  /// (featurize + predict + rank) / wall. Values above 1 measure how much
  /// stage time the pipeline hid.
  double overlap_ratio = 0.0;
  std::uint64_t chunks = 0;
};

struct SweepEngineOptions {
  /// Configs per scored chunk (one leased GraphBatch).
  int chunk = 256;
  /// Frontier bound: the engine keeps the best `keep` designs seen so far
  /// (ModelDse uses max(top_m, beam_width) * 4).
  std::size_t keep = 128;
  double util_threshold = 0.8;
  /// Cooperative cancellation (see DseOptions::cancel): pending configs
  /// not yet handed to a batch are dropped; the in-flight chunk finishes.
  const std::atomic<bool>* cancel = nullptr;
};

/// Producer API: push() every candidate config (chunks auto-dispatch),
/// barrier()/top_configs() at beam refresh points, finish() for the final
/// sorted frontier. Single producer thread; the engine starts its single
/// consumer thread ("sweep-score") on construction. Not reusable after
/// finish().
class SweepEngine {
 public:
  /// `kernel` and the bundle's trainers must outlive the engine. The
  /// factory may be shared with concurrent featurize()/predict traffic
  /// (serve); leased batch slots are private to this engine.
  SweepEngine(const ModelBundle& models, model::SampleFactory& factory,
              const kir::Kernel& kernel, const SweepEngineOptions& opts);
  ~SweepEngine();
  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  /// Queues one candidate; dispatches a chunk once `opts.chunk` are
  /// pending. Rethrows any error raised on the scoring thread.
  void push(hlssim::DesignConfig&& cfg);

  /// Dispatches the pending partial chunk and blocks until every
  /// dispatched chunk is scored.
  void barrier();

  /// Best `n` configs scored so far (barriers first) — the beam refresh.
  std::vector<hlssim::DesignConfig> top_configs(std::size_t n);

  /// Final drain: barrier, stop the scoring thread, and return the
  /// frontier sorted best-first. Also fixes stats().
  std::vector<RankedDesign> finish();

  /// Configs scored so far (stable after barrier()/finish()).
  std::uint64_t num_scored() const {
    return num_scored_.load(std::memory_order_relaxed);
  }

  /// Valid after finish().
  const SweepStageStats& stats() const { return stats_; }

 private:
  struct Slot {
    std::shared_ptr<model::SampleFactory::BatchSlot> batch;
    std::vector<hlssim::DesignConfig> configs;
    std::uint64_t first_seq = 0;
    bool ready = false;  // guarded by mu_: featurized, waiting for scoring
  };
  /// Frontier entry. `seq` is the push-order sequence number: it makes
  /// (score desc, seq asc) a strict total order, so tie-breaks are
  /// deterministic.
  struct Scored {
    RankedDesign d;
    double score = 0.0;
    std::uint64_t seq = 0;
  };

  bool cancelled() const {
    return opts_.cancel && opts_.cancel->load(std::memory_order_relaxed);
  }
  bool better(const Scored& a, const Scored& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.seq < b.seq;
  }
  void rethrow_pending_error();
  /// Moves `pending_` into the current fill slot, featurizes it, and hands
  /// it to the scoring thread.
  void dispatch();
  void featurize_slot(Slot& s);
  /// Predict + rank one featurized slot; appends to the frontier and
  /// prunes it to `opts.keep` (runs on the scoring thread).
  void score_slot(Slot& s);
  void keep_top();
  void worker_loop();
  void stop_worker();

  ModelBundle models_;
  model::SampleFactory& factory_;
  const kir::Kernel& kernel_;
  SweepEngineOptions opts_;
  util::Timer timer_;

  // Producer-side state.
  std::vector<hlssim::DesignConfig> pending_;
  std::uint64_t next_seq_ = 0;
  int fill_idx_ = 0;

  // Shared pipeline state (guarded by mu_ unless noted).
  std::array<Slot, 2> slots_;
  int score_idx_ = 0;
  std::uint64_t dispatched_chunks_ = 0;
  std::uint64_t scored_chunks_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
  std::mutex mu_;
  std::condition_variable cv_to_consumer_;
  std::condition_variable cv_to_producer_;

  // Consumer-side state; the producer reads it only after a barrier (the
  // scored_chunks_ handshake under mu_ orders those accesses).
  std::vector<Scored> frontier_;

  // Telemetry accumulators (atomic: stages run on two threads).
  std::atomic<std::uint64_t> num_scored_{0};
  std::atomic<std::int64_t> feat_us_{0};
  std::atomic<std::int64_t> pred_us_{0};
  std::atomic<std::int64_t> rank_us_{0};
  SweepStageStats stats_;

  // Declared last: the scoring thread uses every member above, and it is
  // started at the end of the constructor and joined before they go away.
  std::thread worker_;
};

}  // namespace gnndse::dse
