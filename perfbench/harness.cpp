// Benchmark harness: runs one workload's generated work list against the
// gnndse libraries on a one-lane pool and prints the raw measurements as a
// single JSON line. perfbench/run.py generates the work list from the
// seed, builds this binary, and turns the raw numbers into metrics.
//
//   perfbench_harness <work-list file>
//
// The work list is plain text, one directive per line (run.py writes it):
//
//   workload train|sweep|serve   trace 0|1       db_size N
//   epochs MAIN BRAM CLS         setup_repeats R  setup IDX...
//   heldout IDX...               trace_out PATH
//   train:  job_epochs M B C     job IDX...       repeat_job J
//   sweep:  sweep KERNEL SEED MAX_CONFIGS         top_m M
//   serve:  serve_batch MAX_BATCH MAX_WAIT_US     warmup IDX...
//           closed OUTSTANDING IDX...             open IDX DUE_US
//           segments K
//
// IDX values index the deterministic initial database (seed 42, the nine
// training kernels), so the generated inputs are explicit design points.
//
// A work list that lacks a directive its workload needs is refused.
//
// Every workload first sets up `setup_repeats` times (DB generation,
// build_dataset, three-head training) and checks the repeats agree bit for
// bit. The measured section then runs untraced; with `trace 1` the same
// work also runs with obs telemetry on, and both passes must produce the
// same outputs. The traced sweep is the product's own ModelDse::run, read
// through its spans and stage timers; the traced train pass replays
// TrainedModels one public layer call at a time so forward, backward and
// Adam each get a span; serve records telemetry in the middle two of each
// four traffic segments, then replays its served requests through the
// daemon's per-request calls. Failed output checks are counted, never
// fatal.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "db/explorer.hpp"
#include "dse/dse.hpp"
#include "dse/pipeline.hpp"
#include "dspace/design_space.hpp"
#include "frontend/kernel_json.hpp"
#include "kernels/kernels.hpp"
#include "model/weights.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "oracle/stack.hpp"
#include "serve/batcher.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tensor/adam.hpp"
#include "util/cpu.hpp"
#include "util/parallel.hpp"

using namespace gnndse;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------- json output

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) { return serve::json_quote(s); }

std::string num_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += num(v[i]);
  }
  return out + "]";
}

// ------------------------------------------------------------------ checks

struct Checks {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> notes;  // first few failures

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (notes.size() < 8) notes.push_back(what);
  }
};

// --------------------------------------------------------------- work list

struct WorkList {
  std::string workload;
  bool trace = false;
  std::size_t db_size = 0;
  struct Range {
    std::string kernel;
    std::size_t start = 0, count = 0;
  };
  std::vector<Range> kernel_ranges;
  int epochs[3] = {};
  int job_epochs[3] = {};
  int setup_repeats = 0;
  std::vector<std::size_t> setup, heldout, warmup;
  std::vector<std::vector<std::size_t>> jobs;
  int repeat_job = -1;
  struct Sweep {
    std::string kernel;
    std::uint64_t seed = 0;
    std::uint64_t max_configs = 0;
  };
  std::vector<Sweep> sweeps;
  int top_m = 0;
  int max_batch = 0;
  std::int64_t max_wait_us = 0;
  int outstanding = 0;
  int segments = 0;
  std::vector<std::size_t> closed;
  std::vector<std::pair<std::size_t, std::int64_t>> open;  // idx, due_us
  std::string trace_out;
};

std::vector<std::size_t> read_indices(std::istringstream& in) {
  std::vector<std::size_t> out;
  std::size_t v = 0;
  while (in >> v) out.push_back(v);
  return out;
}

WorkList parse_work_list(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open work list " + path);
  WorkList w;
  std::set<std::string> seen;
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream in(line);
    std::string key;
    if (!(in >> key)) continue;
    seen.insert(key);
    if (key == "workload") in >> w.workload;
    else if (key == "trace") { int t = 0; in >> t; w.trace = t != 0; }
    else if (key == "db_size") in >> w.db_size;
    else if (key == "kernel_range") {
      WorkList::Range r;
      in >> r.kernel >> r.start >> r.count;
      w.kernel_ranges.push_back(r);
    }
    else if (key == "epochs") in >> w.epochs[0] >> w.epochs[1] >> w.epochs[2];
    else if (key == "job_epochs")
      in >> w.job_epochs[0] >> w.job_epochs[1] >> w.job_epochs[2];
    else if (key == "setup_repeats") in >> w.setup_repeats;
    else if (key == "setup") w.setup = read_indices(in);
    else if (key == "heldout") w.heldout = read_indices(in);
    else if (key == "warmup") w.warmup = read_indices(in);
    else if (key == "job") w.jobs.push_back(read_indices(in));
    else if (key == "repeat_job") in >> w.repeat_job;
    else if (key == "sweep") {
      WorkList::Sweep s;
      in >> s.kernel >> s.seed >> s.max_configs;
      w.sweeps.push_back(s);
    } else if (key == "top_m") in >> w.top_m;
    else if (key == "serve_batch") in >> w.max_batch >> w.max_wait_us;
    else if (key == "segments") in >> w.segments;
    else if (key == "closed") {
      in >> w.outstanding;
      w.closed = read_indices(in);
    } else if (key == "open") {
      std::size_t idx = 0;
      std::int64_t due = 0;
      in >> idx >> due;
      w.open.emplace_back(idx, due);
    } else if (key == "trace_out") in >> w.trace_out;
    else throw std::runtime_error("unknown work-list directive: " + key);
  }
  std::vector<std::string> need = {"workload", "trace", "db_size",
                                   "kernel_range", "epochs", "setup_repeats",
                                   "setup", "heldout"};
  if (w.workload == "train") need.insert(need.end(), {"job_epochs", "job", "repeat_job"});
  else if (w.workload == "sweep") need.insert(need.end(), {"sweep", "top_m"});
  else if (w.workload == "serve")
    need.insert(need.end(), {"serve_batch", "segments", "warmup", "closed", "open"});
  if (w.trace) need.push_back("trace_out");
  if (w.trace && w.workload == "serve" && w.segments % 4 != 0)
    throw std::runtime_error("a traced serve run needs segments in fours");
  for (const std::string& key : need)
    if (!seen.count(key))
      throw std::runtime_error("work list lacks the " + key + " directive");
  return w;
}

// ------------------------------------------------------------------- setup

const std::vector<kir::Kernel>& training_kernels() {
  static const std::vector<kir::Kernel> ks = kernels::make_training_kernels();
  return ks;
}

const kir::Kernel& kernel_by_name(const std::string& name) {
  for (const auto& k : training_kernels())
    if (k.name == name) return k;
  throw std::runtime_error("unknown kernel " + name);
}

db::Database subset(const db::Database& full,
                    const std::vector<std::size_t>& idx) {
  db::Database out;
  for (std::size_t i : idx) {
    if (i >= full.size()) throw std::runtime_error("db index out of range");
    out.add(full.points()[i]);
  }
  return out;
}

dse::PipelineOptions pipeline_options(const int epochs[3]) {
  dse::PipelineOptions po;  // shipped architecture: M7, 6 layers, hidden 64
  po.main_epochs = epochs[0];
  po.bram_epochs = epochs[1];
  po.classifier_epochs = epochs[2];
  return po;
}

bool same_bits(const std::vector<tensor::Tensor>& a,
               const std::vector<tensor::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].numel() != b[i].numel()) return false;
    if (std::memcmp(a[i].data(), b[i].data(),
                    sizeof(float) * static_cast<std::size_t>(a[i].numel())))
      return false;
  }
  return true;
}

/// Weights of the three heads (main, bram, classifier), concatenated.
std::vector<tensor::Tensor> head_weights(model::PredictiveModel& main_m,
                                         model::PredictiveModel& bram_m,
                                         model::PredictiveModel& cls_m) {
  std::vector<tensor::Tensor> out;
  for (model::PredictiveModel* p : {&main_m, &bram_m, &cls_m}) {
    auto w = model::copy_params(p->params());
    out.insert(out.end(), w.begin(), w.end());
  }
  return out;
}

std::vector<tensor::Tensor> head_weights(dse::TrainedModels& m) {
  return head_weights(m.main_model(), m.bram_model(), m.cls_model());
}

/// Held-out quality of one trained bundle: classifier F1 and the Table-2
/// RMSE sum (main + bram) on the held-out design points.
struct Quality {
  float f1 = 0.0f;
  float rmse_sum = 0.0f;
};

Quality eval_heldout(const dse::ModelBundle& b, const model::Normalizer& norm,
                     const db::Database& heldout) {
  obs::ScopedSpan span("model.eval_heldout");
  model::SampleFactory factory;
  const model::Dataset ds =
      model::build_dataset(heldout, training_kernels(), norm, factory);
  Quality q;
  q.f1 = model::eval_classification(*b.classifier, ds, ds.all_indices()).f1;
  const auto valid = ds.valid_indices();
  q.rmse_sum =
      model::combine(model::eval_regression(*b.regression_main, ds, valid),
                     model::eval_regression(*b.regression_bram, ds, valid))
          .rmse_sum;
  return q;
}

struct Setup {
  db::Database db;
  db::Database heldout;
  std::unique_ptr<model::SampleFactory> factory;
  std::unique_ptr<dse::TrainedModels> models;
  std::vector<double> seconds;
  Quality quality;
};

/// DB generation + build_dataset + three-head training, `repeats` times
/// (each from scratch: fresh oracle, factory and models). The last repeat's
/// products are kept; every repeat must train bit-identical weights.
Setup run_setup(const WorkList& w, Checks& checks) {
  Setup s;
  std::vector<tensor::Tensor> first;
  for (int r = 0; r < std::max(1, w.setup_repeats); ++r) {
    const auto t0 = Clock::now();
    oracle::OracleStack oracle{oracle::OracleOptions{}};
    util::Rng rng(42);
    s.db = db::generate_initial_database(training_kernels(), oracle, rng);
    if (s.db.size() != w.db_size)
      throw std::runtime_error("initial database has " +
                               std::to_string(s.db.size()) +
                               " points, work list expects " +
                               std::to_string(w.db_size));
    for (const auto& kr : w.kernel_ranges) {
      const auto pts = s.db.kernel_points(kr.kernel);
      if (pts.size() != kr.count || (kr.count && pts.front() != kr.start) ||
          (kr.count && pts.back() != kr.start + kr.count - 1))
        throw std::runtime_error("initial database does not hold " +
                                 kr.kernel + " at the work list's range");
    }
    const db::Database train_db = subset(s.db, w.setup);
    s.factory = std::make_unique<model::SampleFactory>();
    s.models = std::make_unique<dse::TrainedModels>(
        train_db, training_kernels(), *s.factory, pipeline_options(w.epochs));
    s.seconds.push_back(seconds_since(t0));
    auto weights = head_weights(*s.models);
    if (r == 0) first = std::move(weights);
    else checks.expect(same_bits(first, weights),
                       "setup repeat " + std::to_string(r) +
                           " trained different weights");
  }
  s.heldout = subset(s.db, w.heldout);
  s.quality = eval_heldout(s.models->bundle(), s.models->normalizer(),
                           s.heldout);
  return s;
}

// ----------------------------------------------------------------- results

struct Result {
  std::vector<double> unit_ms;    // one latency sample per unit of work
  std::vector<double> unit_work;  // train/sweep: work done by each unit
  std::vector<double> closed_done_s;  // serve: closed-loop completion times
  double quality = 0.0;
  double rmse_sum = 0.0;
  // Per-layer counts, ratios and times not read from spans.
  std::map<std::string, double> figures;
  // Measured section, untraced and (trace runs) traced.
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;
  // Traced minus untraced time of the same work, both equally warm.
  double overhead_s = 0.0;
  // Layer coverage: the traced time the named layers could account for
  // (serve: the layer replay only) and the time attributed outside spans.
  double coverage_wall_s = 0.0;
  double covered_ms = 0.0;
  // serve: batch size read from each response, generator lateness.
  std::vector<double> batch_sizes, late_ms;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// ------------------------------------------------------------------- train

std::size_t count_valid(const db::Database& d) {
  std::size_t n = 0;
  for (const auto& p : d.points()) n += p.result.valid ? 1 : 0;
  return n;
}

/// Trainer::fit, replayed one layer call at a time so each gets a span:
/// the same seeded shuffle, minibatches, loss and Adam updates, hence the
/// same weights.
void replay_fit(model::PredictiveModel& m, const model::TrainOptions& to,
                const model::Dataset& ds, std::vector<std::size_t> order,
                const std::string& head) {
  obs::ScopedSpan fit_span("model.fit." + head);
  tensor::Adam adam(tensor::AdamConfig{.lr = to.lr});
  adam.register_params(m.params());
  util::Rng rng(to.seed);
  const bool cls = to.task == model::Task::kClassification;
  const std::int64_t out = cls ? 1 : static_cast<std::int64_t>(to.objectives.size());
  for (int epoch = 0; epoch < to.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(to.batch_size)) {
      const std::size_t end =
          std::min(order.size(), start + static_cast<std::size_t>(to.batch_size));
      gnn::GraphBatch batch;
      tensor::Tensor targets({static_cast<std::int64_t>(end - start), out});
      {
        obs::ScopedSpan s("gnn.make_batch");
        std::vector<const gnn::GraphData*> graphs;
        for (std::size_t i = start; i < end; ++i) {
          const model::Sample& smp = ds.samples[order[i]];
          graphs.push_back(&smp.graph);
          const auto row = static_cast<std::int64_t>(i - start);
          if (cls) {
            targets.at(row, 0) = smp.valid ? 1.0f : 0.0f;
          } else {
            for (std::size_t o = 0; o < to.objectives.size(); ++o)
              targets.at(row, static_cast<std::int64_t>(o)) =
                  smp.target[static_cast<std::size_t>(to.objectives[o])];
          }
        }
        batch = gnn::make_batch(graphs);
      }
      adam.zero_grad();
      tensor::Tape tape;
      tensor::VarId loss;
      {
        obs::ScopedSpan s("gnn.forward_tape");
        const tensor::VarId pred = m.forward(tape, batch);
        loss = cls ? tape.bce_with_logits(pred, targets)
                   : tape.mse_loss(pred, targets);
      }
      {
        obs::ScopedSpan s("tensor.backward");
        tape.backward(loss);
      }
      {
        obs::ScopedSpan s("tensor.adam_step");
        adam.step();
      }
    }
  }
}

/// One retrain job through public layer calls — the steps
/// dse::TrainedModels performs, in the same order and with the same seeds.
/// Returns the trained weights of the three heads; scores them on the
/// held-out points when `q` is given.
std::vector<tensor::Tensor> replay_job(const db::Database& job_db,
                                       const dse::PipelineOptions& po,
                                       const db::Database& heldout,
                                       Quality* q) {
  const model::Normalizer norm = model::Normalizer::fit(job_db.points());
  util::Rng rng(po.seed);
  model::ModelOptions mo;
  mo.kind = po.kind;
  mo.hidden = po.hidden;
  mo.gnn_layers = po.gnn_layers;
  mo.out_dim = 4;
  model::PredictiveModel main_m(mo, rng);
  mo.out_dim = 1;
  model::PredictiveModel bram_m(mo, rng);
  model::PredictiveModel cls_m(mo, rng);

  model::TrainOptions to;
  to.task = model::Task::kRegression;
  to.objectives = {model::kLatency, model::kDsp, model::kLut, model::kFf};
  to.epochs = po.main_epochs;
  to.batch_size = po.batch_size;
  to.lr = po.lr;
  to.seed = po.seed;
  model::TrainOptions tb = to;
  tb.objectives = {model::kBram};
  tb.epochs = po.bram_epochs;
  model::TrainOptions tc = to;
  tc.task = model::Task::kClassification;
  tc.epochs = po.classifier_epochs;
  tc.lr = po.cls_lr;

  model::SampleFactory factory;
  model::Dataset ds;
  {
    obs::ScopedSpan s("model.build_dataset");
    ds = model::build_dataset(job_db, training_kernels(), norm, factory);
  }
  replay_fit(main_m, to, ds, ds.valid_indices(), "main");
  replay_fit(bram_m, tb, ds, ds.valid_indices(), "bram");
  replay_fit(cls_m, tc, ds, ds.all_indices(), "cls");
  if (q) {
    model::Trainer main_t(main_m, to), bram_t(bram_m, tb), cls_t(cls_m, tc);
    *q = eval_heldout(dse::ModelBundle{&main_t, &bram_t, &cls_t}, norm,
                      heldout);
  }
  return head_weights(main_m, bram_m, cls_m);
}

Result run_train(const WorkList& w, const Setup& setup, Checks& checks) {
  Result res;
  const dse::PipelineOptions po = pipeline_options(w.job_epochs);
  std::vector<int> order(w.jobs.size());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = static_cast<int>(j);
  if (w.repeat_job >= 0) order.push_back(w.repeat_job);
  std::vector<std::vector<tensor::Tensor>> weights;  // per job, first run
  std::vector<double> f1s, rmses;
  for (std::size_t n = 0; n < order.size(); ++n) {
    const auto j = static_cast<std::size_t>(order[n]);
    const bool first_run = n < w.jobs.size();
    const db::Database job_db = subset(setup.db, w.jobs[j]);
    const std::size_t valid = count_valid(job_db);
    res.unit_work.push_back(static_cast<double>(
        valid * static_cast<std::size_t>(po.main_epochs + po.bram_epochs) +
        job_db.size() * static_cast<std::size_t>(po.classifier_epochs)));
    const auto t0 = Clock::now();
    std::vector<tensor::Tensor> trained;
    {
      model::SampleFactory factory;
      dse::TrainedModels tm(job_db, training_kernels(), factory, po);
      res.unit_ms.push_back(seconds_since(t0) * 1e3);
      trained = head_weights(tm);
      if (first_run) {
        const Quality q = eval_heldout(tm.bundle(), tm.normalizer(), setup.heldout);
        checks.expect(std::isfinite(q.rmse_sum),
                      "train job " + std::to_string(j) + " scored a non-finite RMSE");
        f1s.push_back(q.f1);
        rmses.push_back(q.rmse_sum);
      }
    }
    res.untraced_wall_s += seconds_since(t0);
    if (w.trace) {
      obs::set_enabled(true);
      const auto t1 = Clock::now();
      Quality q;
      const auto replayed =
          replay_job(job_db, po, setup.heldout, first_run ? &q : nullptr);
      res.traced_wall_s += seconds_since(t1);
      obs::set_enabled(false);
      checks.expect(same_bits(replayed, trained),
                    "traced replay of job " + std::to_string(j) +
                        " trained different weights than TrainedModels");
    }
    if (first_run) weights.push_back(std::move(trained));
    else checks.expect(same_bits(weights[j], trained),
                       "repeated train job " + std::to_string(j) +
                           " trained different weights");
  }
  res.quality = median(f1s);
  res.rmse_sum = median(rmses);
  res.overhead_s = res.traced_wall_s - res.untraced_wall_s;
  res.coverage_wall_s = res.traced_wall_s;
  return res;
}

// ------------------------------------------------------------------- sweep

/// Oracle decorator that counts every batch ModelDse sends and checks a
/// result comes back for each design.
class CountingOracle final : public oracle::Evaluator {
 public:
  CountingOracle(oracle::OracleStack& inner, Checks& checks)
      : inner_(inner), checks_(checks) {}

  hlssim::HlsResult evaluate(const kir::Kernel& k,
                             const hlssim::DesignConfig& cfg) override {
    return evaluate_batch(k, {cfg}).front();
  }

  std::vector<hlssim::HlsResult> evaluate_batch(
      const kir::Kernel& k,
      const std::vector<hlssim::DesignConfig>& cfgs) override {
    const std::size_t before = inner_.cache().size();
    std::vector<hlssim::HlsResult> out = inner_.evaluate_batch(k, cfgs);
    const std::size_t fresh = inner_.cache().size() - before;
    evals += static_cast<double>(cfgs.size());
    hits += static_cast<double>(cfgs.size() - std::min(fresh, cfgs.size()));
    checks_.expect(out.size() == cfgs.size(),
                   "oracle returned " + std::to_string(out.size()) +
                       " results for " + std::to_string(cfgs.size()) +
                       " designs of " + k.name);
    return out;
  }

  double evals = 0.0;
  double hits = 0.0;

 private:
  oracle::OracleStack& inner_;
  Checks& checks_;
};

std::string top_signature(const dse::DseResult& r) {
  std::string sig;
  for (const auto& d : r.top) {
    sig += d.config.key();
    for (float p : d.predicted) sig += "," + serve::float_str(p);
    sig += "," + serve::float_str(d.p_valid) + ";";
  }
  return sig;
}

Result run_sweep(const WorkList& w, Setup& setup, Checks& checks) {
  Result res;
  dse::ModelBundle bundle = setup.models->bundle();
  dse::ModelDse dse(bundle, setup.models->normalizer(), *setup.factory);
  // One oracle per pass, so the traced pass sees the same cache hits.
  oracle::OracleStack stack_untraced{oracle::OracleOptions{}};
  oracle::OracleStack stack_traced{oracle::OracleOptions{}};
  CountingOracle oracle(stack_untraced, checks);
  CountingOracle oracle_traced(stack_traced, checks);
  std::map<std::string, std::string> first_top;
  double speedup_sum = 0.0, valid_evals = 0.0, evaluated = 0.0;
  double space_configs = 0.0, featurize_ms = 0.0, rank_ms = 0.0,
         other_ms = 0.0;
  for (std::size_t n = 0; n < w.sweeps.size(); ++n) {
    const WorkList::Sweep& req = w.sweeps[n];
    const kir::Kernel& k = kernel_by_name(req.kernel);
    dse::DseOptions opts;
    opts.time_limit_seconds = 1e9;  // fixed work: budgets, never the clock
    opts.top_m = w.top_m;
    opts.max_configs = req.max_configs;
    const std::string key = req.kernel + "#" + std::to_string(req.seed) + "#" +
                            std::to_string(req.max_configs);
    auto it = first_top.find(key);
    const bool repeat = it != first_top.end();

    dse::DseResult r, tr;
    dse::ModelDse::TopEvaluation ev;
    double s = 0.0, ts = 0.0;
    auto untraced = [&] {
      const auto t0 = Clock::now();
      util::Rng rng(req.seed);
      r = dse.run(k, opts, rng);
      ev = dse.evaluate_top(k, r, oracle, opts.util_threshold);
      s = seconds_since(t0);
    };
    // The same request with the product's own telemetry on: its spans
    // (gnn.predict_batch per head, oracle.evaluate_batch) and the engine's
    // stage timers attribute the traced time.
    auto traced = [&] {
      obs::set_enabled(true);
      const auto t0 = Clock::now();
      util::Rng rng(req.seed);
      tr = dse.run(k, opts, rng);
      dse.evaluate_top(k, tr, oracle_traced, opts.util_threshold);
      ts = seconds_since(t0);
      obs::set_enabled(false);
    };
    // Repeats alternate which pass runs first, so neither always follows
    // the other on the same kernel's warm caches.
    const bool traced_first = w.trace && repeat && n % 2 == 1;
    if (traced_first) traced();
    untraced();
    if (w.trace && !traced_first) traced();

    res.unit_ms.push_back(s * 1e3);
    res.unit_work.push_back(static_cast<double>(r.num_explored));
    res.untraced_wall_s += s;
    const std::string sig = top_signature(r);
    if (!repeat) first_top.emplace(key, sig);
    else checks.expect(it->second == sig,
                       "sweep of " + key + " ranked a different top list");
    checks.expect(!r.top.empty(), "sweep of " + key + " returned no designs");
    const auto initial = setup.db.best_valid(k.name, opts.util_threshold);
    if (initial && ev.best)
      speedup_sum += initial->result.cycles / ev.best->result.cycles;
    for (const auto& p : ev.evaluated) valid_evals += p.result.valid ? 1.0 : 0.0;
    evaluated += static_cast<double>(ev.evaluated.size());

    if (w.trace) {
      res.traced_wall_s += ts;
      // A request's first run also builds the kernel's template, batch
      // skeletons and workspaces; only repeats compare like with like.
      if (repeat) res.overhead_s += ts - s;
      checks.expect(top_signature(tr) == sig,
                    "traced sweep " + key + " ranked differently");
      space_configs += static_cast<double>(
          setup.factory->space(k).pruned_size());
      const dse::SweepStageStats& st = tr.stages;
      featurize_ms += st.featurize_ms;
      rank_ms += st.rank_ms;
      // dse.search time outside the stage timers: enumeration and beam
      // bookkeeping that did not overlap the scoring thread.
      other_ms += tr.search_seconds * 1e3 - st.featurize_ms - st.predict_ms -
                  st.rank_ms;
    }
  }
  res.quality = speedup_sum / static_cast<double>(std::max<std::size_t>(1, w.sweeps.size()));
  res.rmse_sum = setup.quality.rmse_sum;
  double scored = 0.0;
  for (double c : res.unit_work) scored += c;
  res.figures["dse.configs_scored"] = scored;
  res.figures["oracle.evals"] = oracle.evals;
  res.figures["oracle.hit_ratio"] = oracle.evals > 0 ? oracle.hits / oracle.evals : 0.0;
  res.figures["dse.top_valid_ratio"] = evaluated > 0 ? valid_evals / evaluated : 0.0;
  if (w.trace) {
    res.coverage_wall_s = res.traced_wall_s;
    res.figures["dspace.configs"] = space_configs;
    res.figures["dspace.enumerate_ms"] = other_ms;
    res.figures["model.featurize_ms"] = featurize_ms;
    res.figures["dse.rank_ms"] = rank_ms;
    res.covered_ms = featurize_ms + rank_ms;
    // One lane: predict_batch_concurrent runs the heads inline on the
    // scoring thread, main then bram then cls, so the spans cycle.
    const char* heads[3] = {"main", "bram", "cls"};
    std::size_t n = 0;
    for (const auto& rec : obs::trace_snapshot()) {
      if (rec.name != "gnn.predict_batch") continue;
      res.figures[std::string("gnn.predict_batch_ms.") + heads[n++ % 3]] +=
          rec.duration_ms;
    }
    checks.expect(n % 3 == 0, "traced sweep recorded " + std::to_string(n) +
                                  " head predictions, not a multiple of 3");
  }
  return res;
}

// ------------------------------------------------------------------- serve

std::string one_line(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  return s;
}

/// Text between `"predicted":` and `,"model_version"` of a predict response.
std::string predicted_part(const std::string& resp) {
  const auto a = resp.find("\"predicted\":");
  const auto b = resp.find(",\"model_version\"");
  if (a == std::string::npos || b == std::string::npos || b < a) return "";
  return resp.substr(a, b - a);
}

int batch_size_of(const std::string& resp) {
  const auto a = resp.find("\"batch_size\":");
  return a == std::string::npos ? 0 : std::atoi(resp.c_str() + a + 13);
}

class ServeRun {
 public:
  ServeRun(const WorkList& w, Setup& setup) : w_(w), setup_(setup) {
    for (const auto& k : training_kernels())
      kernel_json_[k.name] = one_line(frontend::serialize_kernel(k));
    slot_.install(serve::snapshot_from_trained(
        *setup.models, setup.models->normalizer().norm_factor()));
  }

  std::string line_for(std::size_t idx, std::int64_t id) const {
    const auto& p = setup_.db.points().at(idx);
    return "{\"kind\":\"predict\",\"id\":" + std::to_string(id) +
           ",\"kernel\":" + kernel_json_.at(p.kernel) + ",\"config\":" +
           serve::json_quote(p.config.key()) + "}";
  }

  Result run(Checks& checks, std::vector<std::string>& responses) {
    Result res;
    model::SampleFactory factory;
    serve::ServerOptions so;
    so.port = 0;
    so.batcher.max_batch = w_.max_batch;
    so.batcher.max_wait_us = w_.max_wait_us;
    serve::Server server(slot_, factory, so);
    std::thread runner([&] { server.run(); });
    std::vector<std::size_t> served;  // db index per response, in order
    std::vector<std::string> resp;
    try {
      serve::Socket sock = serve::connect_to("127.0.0.1", server.port());
      serve::LineReader lines(sock);
      std::int64_t next_id = 0;
      // Warm-up: templates, batch skeletons and workspaces for each kernel.
      for (std::size_t idx : w_.warmup) {
        sock.send_line(line_for(idx, next_id++));
        std::string l;
        lines.read_line(&l);
      }
      // The closed and open loops alternate over `segments` stretches, so
      // both sample the whole run rather than one end of it.
      serve::Socket osock = serve::connect_to("127.0.0.1", server.port());
      serve::LineReader olines(osock);
      const int segs = std::max(1, w_.segments);
      double closed_s = 0.0;  // closed-loop time of the finished segments
      for (int seg = 0; seg < segs; ++seg) {
        // Traced runs record telemetry in segments 1 and 2 of every four
        // (ABBA), so traced and untraced stretches share the run's drift.
        const bool traced = w_.trace && (seg % 4 == 1 || seg % 4 == 2);
        obs::set_enabled(traced);
        const auto seg_t0 = Clock::now();
        {  // closed loop: `outstanding` requests in flight on one connection
          const std::size_t lo = w_.closed.size() * seg / segs;
          const std::size_t hi = w_.closed.size() * (seg + 1) / segs;
          const auto t0 = Clock::now();
          std::size_t sent = lo, got = lo;
          while (sent < hi && sent - lo < static_cast<std::size_t>(w_.outstanding))
            sock.send_line(line_for(w_.closed[sent++], next_id++));
          std::string l;
          while (got < hi && lines.read_line(&l)) {
            res.closed_done_s.push_back(closed_s + seconds_since(t0));
            resp.push_back(std::move(l));
            served.push_back(w_.closed[got++]);
            if (sent < hi) sock.send_line(line_for(w_.closed[sent++], next_id++));
          }
          closed_s += seconds_since(t0);
        }
        {  // open loop: second connection, sends on the frozen schedule
          const std::size_t lo = w_.open.size() * seg / segs;
          const std::size_t hi = w_.open.size() * (seg + 1) / segs;
          if (lo < hi) {
            std::vector<std::string> text;
            for (std::size_t i = lo; i < hi; ++i)
              text.push_back(line_for(w_.open[i].first, next_id++));
            // Due times keep the grid's spacing, shifted to this stretch.
            const auto start = Clock::now() + std::chrono::milliseconds(5) -
                               std::chrono::microseconds(w_.open[lo].second);
            auto due_of = [&](std::size_t i) {
              return start + std::chrono::microseconds(w_.open[i].second);
            };
            std::vector<double> late(hi - lo, 0.0);
            // jthread: joined on every path out of this block, exceptions too.
            std::jthread sender([&] {
              for (std::size_t i = lo; i < hi; ++i) {
                std::this_thread::sleep_until(due_of(i));
                late[i - lo] = std::chrono::duration<double, std::milli>(
                                   Clock::now() - due_of(i)).count();
                if (!osock.send_line(text[i - lo])) break;
              }
            });
            std::string l;
            for (std::size_t i = lo; i < hi && olines.read_line(&l); ++i) {
              res.unit_ms.push_back(std::chrono::duration<double, std::milli>(
                                        Clock::now() - due_of(i)).count());
              resp.push_back(std::move(l));
              served.push_back(w_.open[i].first);
            }
            sender.join();
            late_.insert(late_.end(), late.begin(), late.end());
          }
        }
        (traced ? res.traced_wall_s : res.untraced_wall_s) +=
            seconds_since(seg_t0);
        obs::set_enabled(false);
      }
      sock.send_line("{\"kind\":\"admin\",\"op\":\"drain\"}");
      std::string l;
      lines.read_line(&l);
    } catch (...) {
      server.request_drain();
      runner.join();
      throw;
    }
    runner.join();
    checks.expect(resp.size() == w_.closed.size() + w_.open.size(),
                  "served " + std::to_string(resp.size()) + " of " +
                      std::to_string(w_.closed.size() + w_.open.size()) +
                      " requests");
    served_ = served;
    responses = resp;
    return res;
  }

  /// Checks every response against serve::predict_single on the same
  /// snapshot and scores the validity calls against the oracle's result
  /// stored with each design point.
  double verify(const std::vector<std::string>& resp, Checks& checks,
                std::vector<double>& batch_sizes) {
    serve::ModelInstance inst;
    inst.ensure(slot_.current());
    model::SampleFactory factory;
    std::map<std::size_t, serve::PredictResult> ref;
    double matches = 0.0;
    for (std::size_t i = 0; i < resp.size(); ++i) {
      const std::size_t idx = served_[i];
      auto it = ref.find(idx);
      if (it == ref.end()) {
        const auto& p = setup_.db.points()[idx];
        it = ref.emplace(idx, serve::predict_single(
                                  inst, factory, kernel_by_name(p.kernel),
                                  p.config)).first;
      }
      const serve::PredictResult& r = it->second;
      const bool ok = r.ok && resp[i].find("\"ok\":true") != std::string::npos &&
                      predicted_part(resp[i]) ==
                          serve::predicted_fields(r.predicted, r.p_valid);
      checks.expect(ok, "served prediction " + std::to_string(i) +
                            " differs from predict_single");
      batch_sizes.push_back(batch_size_of(resp[i]));
      const bool truth = setup_.db.points()[idx].result.valid;
      matches += ((r.p_valid >= 0.5f) == truth) ? 1.0 : 0.0;
    }
    return resp.empty() ? 0.0 : matches / static_cast<double>(resp.size());
  }

  /// Replays the served requests through the public calls the daemon makes
  /// per request, one span each: protocol parse, single-config
  /// featurization, and the batcher's batch step (make_batch + the three
  /// heads) at the observed batch sizes. Returns the replay's wall time in
  /// seconds, request text prepared beforehand excluded.
  double replay_layers(const std::vector<double>& batch_sizes) {
    serve::ModelInstance inst;
    inst.ensure(slot_.current());
    model::SampleFactory factory;
    std::vector<std::string> text;
    for (std::size_t i = 0; i < served_.size(); ++i)
      text.push_back(line_for(served_[i], static_cast<std::int64_t>(i)));
    const auto t0 = Clock::now();
    std::vector<gnn::GraphData> graphs;
    for (const std::string& line : text) {
      serve::Request req;
      {
        obs::ScopedSpan s("serve.parse");
        req = serve::parse_request(line);
      }
      obs::ScopedSpan s("model.featurize_single");
      graphs.push_back(factory.featurize(req.kernel, req.config));
    }
    // Re-batch in arrival order at the sizes the batcher actually used.
    dse::ModelBundle b = inst.bundle();
    std::size_t pos = 0;
    for (std::size_t i = 0; i < batch_sizes.size() && pos < graphs.size();) {
      const std::size_t n = std::max<std::size_t>(
          1, std::min<std::size_t>(static_cast<std::size_t>(batch_sizes[i]),
                                   graphs.size() - pos));
      std::vector<const gnn::GraphData*> ptrs;
      for (std::size_t j = pos; j < pos + n; ++j) ptrs.push_back(&graphs[j]);
      obs::ScopedSpan s("gnn.predict_batch.small");
      const gnn::GraphBatch batch = gnn::make_batch(ptrs);
      b.regression_main->predict_batch(batch);
      b.regression_bram->predict_batch(batch);
      b.classifier->predict_batch(batch);
      pos += n;
      i += n;
    }
    return seconds_since(t0);
  }

  const std::vector<double>& late_ms() const { return late_; }

 private:
  const WorkList& w_;
  Setup& setup_;
  serve::ModelSlot slot_;
  std::map<std::string, std::string> kernel_json_;
  std::vector<std::size_t> served_;
  std::vector<double> late_;
};

// -------------------------------------------------------------- reporting

/// Span names that back a per-layer metric, per workload. Coverage counts
/// only time inside these; product spans nested in them fold into the
/// enclosing layer's self time.
std::set<std::string> layer_spans(const std::string& workload) {
  if (workload == "train")
    return {"model.build_dataset", "model.fit.main", "model.fit.bram",
            "model.fit.cls", "gnn.make_batch", "gnn.forward_tape",
            "tensor.backward", "tensor.adam_step", "model.eval_heldout"};
  if (workload == "sweep") return {"gnn.predict_batch", "oracle.evaluate_batch"};
  return {"serve.parse", "model.featurize_single", "gnn.predict_batch.small"};
}

struct LayerAgg {
  double total_ms = 0.0;
  double self_ms = 0.0;  // minus the layer spans nested inside
  std::vector<double> call_us;
};

/// Per-layer totals from the recorded spans. `covered_ms` gets the time
/// inside at least one layer span (the sum of the layers' self times).
std::map<std::string, LayerAgg> aggregate_spans(
    const std::vector<obs::SpanRecord>& recs,
    const std::set<std::string>& layers, double& covered_ms) {
  // Ids are indices and parents precede children, so one forward pass
  // finds each span's innermost enclosing layer span.
  std::vector<std::int64_t> layer_of(recs.size(), -1);
  std::map<std::string, LayerAgg> out;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const obs::SpanRecord& r = recs[i];
    const std::int64_t up =
        r.parent >= 0 ? layer_of[static_cast<std::size_t>(r.parent)] : -1;
    if (!layers.count(r.name)) {
      layer_of[i] = up;
      continue;
    }
    layer_of[i] = static_cast<std::int64_t>(i);
    LayerAgg& a = out[r.name];
    a.total_ms += r.duration_ms;
    a.self_ms += r.duration_ms;
    a.call_us.push_back(r.duration_ms * 1e3);
    if (up >= 0) out[recs[static_cast<std::size_t>(up)].name].self_ms -= r.duration_ms;
    else covered_ms += r.duration_ms;
  }
  return out;
}

std::string rusage_json() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double cpu = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                     static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  return "\"cpu_s\":" + num(cpu) + ",\"invol_ctx_switches\":" +
         std::to_string(ru.ru_nivcsw) + ",\"peak_rss_mb\":" +
         num(static_cast<double>(ru.ru_maxrss) / 1024.0);
}

Result run_serve(const WorkList& w, Setup& setup, Checks& checks) {
  ServeRun sr(w, setup);
  std::vector<std::string> resp;
  Result res = sr.run(checks, resp);
  res.quality = sr.verify(resp, checks, res.batch_sizes);
  res.late_ms = sr.late_ms();
  res.rmse_sum = setup.quality.rmse_sum;
  if (w.trace) {
    res.overhead_s = res.traced_wall_s - res.untraced_wall_s;
    // The per-request layer replay, which the layer coverage covers.
    obs::set_enabled(true);
    res.coverage_wall_s = sr.replay_layers(res.batch_sizes);
    obs::set_enabled(false);
  }
  return res;
}

int run(const std::string& path) {
  const WorkList w = parse_work_list(path);
  util::set_parallel_threads(1);
  if (w.trace) {
    obs::set_thread_name("main");
    obs::set_trace_capacity(std::size_t{1} << 22);
  }
  Checks checks;
  Setup setup = run_setup(w, checks);

  Result res;
  if (w.workload == "train") res = run_train(w, setup, checks);
  else if (w.workload == "sweep") res = run_sweep(w, setup, checks);
  else if (w.workload == "serve") res = run_serve(w, setup, checks);
  else throw std::runtime_error("unknown workload " + w.workload);

  std::string layers = "{";
  double span_cost_ms = 0.0;
  if (w.trace) {
    const std::vector<obs::SpanRecord> recs = obs::trace_snapshot();
    checks.expect(obs::trace_spans_dropped() == 0,
                  "the trace dropped " +
                      std::to_string(obs::trace_spans_dropped()) + " spans");
    for (const auto& [name, a] :
         aggregate_spans(recs, layer_spans(w.workload), res.covered_ms)) {
      if (layers.size() > 1) layers += ",";
      layers += quote(name) + ":{\"total_ms\":" + num(a.total_ms) +
                ",\"self_ms\":" + num(a.self_ms) + ",\"call_us\":" +
                num_list(a.call_us) + "}";
    }
    obs::write_chrome_trace(w.trace_out, "perfbench_harness " + w.workload);
    // Intrinsic cost of the instrumentation: spans recorded times the
    // measured cost of one span (recorded after the trace was written).
    constexpr int kCal = 20000;
    obs::set_enabled(true);
    const auto t0 = Clock::now();
    for (int i = 0; i < kCal; ++i) obs::ScopedSpan cal("perfbench.calibrate");
    span_cost_ms = seconds_since(t0) * 1e3 / kCal *
                   static_cast<double>(recs.size());
    obs::set_enabled(false);
  }
  layers += "}";
  std::string figures = "{";
  for (const auto& [name, v] : res.figures)
    figures += (figures.size() > 1 ? "," : "") + quote(name) + ":" + num(v);
  figures += "}";
  std::string notes = "[";
  for (std::size_t i = 0; i < checks.notes.size(); ++i)
    notes += (i ? "," : "") + quote(checks.notes[i]);
  notes += "]";

  const util::SimdLevel det = util::detect_simd_level();
  const util::SimdLevel act = util::active_simd_level();
  std::cout << "{\"workload\":" << quote(w.workload)
            << ",\"setup_s\":" << num_list(setup.seconds)
            << ",\"unit_ms\":" << num_list(res.unit_ms)
            << ",\"unit_work\":" << num_list(res.unit_work)
            << ",\"closed_done_s\":" << num_list(res.closed_done_s)
            << ",\"quality\":" << num(res.quality)
            << ",\"rmse_sum\":" << num(res.rmse_sum)
            << ",\"attempted\":" << checks.attempted
            << ",\"failed\":" << checks.failed << ",\"failures\":" << notes
            << ",\"untraced_wall_s\":" << num(res.untraced_wall_s)
            << ",\"traced_wall_s\":" << num(res.traced_wall_s)
            << ",\"overhead_s\":" << num(res.overhead_s)
            << ",\"coverage_wall_s\":" << num(res.coverage_wall_s)
            << ",\"covered_ms\":" << num(res.covered_ms)
            << ",\"span_cost_ms\":" << num(span_cost_ms)
            << ",\"batch_sizes\":" << num_list(res.batch_sizes)
            << ",\"gen_late_ms\":" << num_list(res.late_ms)
            << ",\"figures\":" << figures << ",\"layers\":" << layers
            << ",\"provenance\":{\"pool_lanes\":" << util::parallel_threads()
            << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
            << ",\"simd_detected\":" << quote(util::simd_level_name(det))
            << ",\"simd_active\":" << quote(util::simd_level_name(act))
            << ",\"model\":{\"kind\":" << quote(model::to_string(model::ModelKind::kM7Full))
            << ",\"gnn_layers\":" << pipeline_options(w.epochs).gnn_layers
            << ",\"hidden\":" << pipeline_options(w.epochs).hidden << "},"
            << rusage_json() << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: perfbench_harness <work-list file>\n";
    return 2;
  }
  try {
    return run(argv[1]);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
