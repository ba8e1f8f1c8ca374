// The one run path behind the eight algorithm drivers.
//
// A driver names its family; the variant catalog (algorithms/catalog.h)
// supplies the `-a` set and default, the input shape each variant reads, the
// runner and the family's result line. Driver::main then does what every
// driver used to spell out: parse, open through the --serve harness, prepare
// the row's inputs, run the trials, print the stat and result lines, and
// write the metrics document.
//
// Flags a driver of the family takes on top of CommonOptions: `-s source`
// for single-source families, `-a <variant>`, `--sources <v0,v1,...|@file>`
// when the family has a batch variant, and whatever knobs the driver binds
// with knob()/real_knob(). `--updates <log.plog>` (bindable to `updates`)
// replays an update log: with a `repair` set the row's result is repaired
// in place batch by batch, otherwise the log is applied as an overlay before
// the trials.
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algorithms/catalog.h"
#include "algorithms/incremental.h"
#include "common.h"
#include "graphs/delta.h"

namespace pasgal::apps {

class Driver {
 public:
  explicit Driver(const char* family) : family_(family) {
    std::vector<std::string> names = catalog::names(family);
    algo_ = names.front();
    if (catalog::find_family(family)->single_source) {
      opts.integer("-s", &aopt.source, 0, 0xFFFFFFFFLL, "source",
                   &source_given_);
    }
    opts.choice("-a", &algo_, names, &algo_given_);
    for (const catalog::Variant& v : catalog::variants(family)) {
      if (v.run_batch != nullptr) {
        opts.text("--sources", &sources_text_, "v0,v1,...|@file");
        break;
      }
    }
  }
  // The option set holds pointers into this object.
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  // Binds an integer flag (usually an AlgoOptions field) that the metrics
  // document records as params.<value_name>.
  template <typename T>
  Driver& knob(std::string flag, T* target, long long min_value,
               long long max_value, std::string value_name,
               bool* seen = nullptr) {
    params_.push_back([target, value_name](MetricsDoc& doc) {
      doc.set_param(value_name, static_cast<std::uint64_t>(*target));
    });
    opts.integer(std::move(flag), target, min_value, max_value, value_name,
                 seen);
    return *this;
  }

  // Real-valued knob recorded as params.<param>.
  Driver& real_knob(std::string flag, double* target, double min_value,
                    double max_value, std::string value_name,
                    std::string param) {
    params_.push_back([target, param](MetricsDoc& doc) {
      doc.set_param(param, *target);
    });
    opts.real(std::move(flag), target, min_value, max_value,
              std::move(value_name));
    return *this;
  }

  cli::OptionSet opts;
  cli::CommonOptions common;
  AlgoOptions aopt;  // the knobs' targets
  // Generated edge weights for weighted rows on unweighted inputs (sssp -w).
  std::uint32_t max_weight = 100;
  bool max_weight_given = false;

  // --updates: the log path, and for in-place repair the row that settles
  // the baseline plus the per-batch repair of its output.
  std::string updates;
  const catalog::Variant* repair_variant = nullptr;
  std::function<IncrementalStats(Graph& base, const catalog::Inputs&,
                                 catalog::Output&,
                                 std::span<const EdgeUpdate>)>
      repair;
  const char* fallback_note = "";  // printed when a repair falls back

  int main(int argc, char** argv) {
    common.declare(opts);
    if (argc < 2) {
      std::fprintf(stderr, "usage: %s <graph> %s\n", argv[0],
                   opts.usage().c_str());
      return 2;
    }
    return run_app([&]() {
      opts.parse(argc, argv, 2);
      run(resolve(), argv[1]);
      return 0;
    });
  }

 private:
  // Applies the mode rules to the parsed flags and returns the row to run.
  const catalog::Variant& resolve() {
    const catalog::Variant* v = catalog::find(family_, algo_);
    if (!sources_text_.empty()) {
      if (source_given_) {
        throw Error(ErrorCategory::kUsage,
                    "-s conflicts with --sources: give one source or a batch");
      }
      std::string batch_names;
      for (const catalog::Variant& b : catalog::variants(family_)) {
        if (b.run_batch == nullptr) continue;
        if (!algo_given_ && v->run_batch == nullptr) v = &b;
        batch_names += (batch_names.empty() ? "" : "|") + std::string(b.name);
      }
      if (v->run_batch == nullptr) {
        throw Error(ErrorCategory::kUsage,
                    "--sources runs a batch kernel; -a " + algo_ +
                        " has no batch mode (use " + batch_names + ")");
      }
      sources_ = cli::parse_sources(sources_text_);
    } else if (v->run == nullptr) {
      throw Error(ErrorCategory::kUsage,
                  "-a " + algo_ + " needs a batch: give the sources via "
                                  "--sources");
    }
    if (updates.empty()) return *v;
    if (!sources_.empty()) {
      throw Error(ErrorCategory::kUsage, "--updates conflicts with --sources");
    }
    if (common.serve != 0) {
      throw Error(ErrorCategory::kUsage,
                  "--updates is stateful (each batch applies once); it "
                  "conflicts with --serve");
    }
    if (repair_variant != nullptr) {
      if (algo_given_ && v != repair_variant) {
        throw Error(ErrorCategory::kUsage,
                    std::string("--updates repairs the -a ") +
                        repair_variant->name + " result in place; only -a " +
                        repair_variant->name + " applies");
      }
      return *repair_variant;
    }
    return *v;
  }

  void run(const catalog::Variant& v, const std::string& spec) {
    const catalog::Family& family = *v.family;
    bool batch = !sources_.empty();
    bool single_source = family.single_source && !batch;
    bool weighted = v.input == catalog::Input::kWeighted;
    bool repairing = !updates.empty() && repair;

    ServeHarness serve(spec, common);
    LoadedGraph loaded;
    std::optional<MetricsDoc> doc;
    double best_batch_seconds = 0;  // fastest batch trial, for set_batch
    while (serve.next()) {
      loaded = weighted
                   ? serve.open_weighted(common, max_weight, max_weight_given)
                   : serve.open(common);
      if (single_source && aopt.source >= loaded.graph.num_vertices()) {
        throw Error(ErrorCategory::kUsage,
                    "source vertex " + std::to_string(aopt.source) +
                        " out of range (graph has " +
                        std::to_string(loaded.graph.num_vertices()) +
                        " vertices)");
      }
      catalog::Inputs in = catalog::prepare(v.input, loaded.graph,
                                            loaded.weighted);
      if (!updates.empty() && !repairing) {
        ApplyStats st = replay_update_log(loaded.graph, updates);
        std::printf("replayed %s: %llu pending inserts, %llu pending "
                    "deletes (%llu batches)\n",
                    updates.c_str(), (unsigned long long)st.inserts,
                    (unsigned long long)st.deletes,
                    (unsigned long long)st.batches);
      }
      std::printf("graph%s: n=%zu m=%zu",
                  v.input == catalog::Input::kSymmetrized ? " (symmetrized)"
                                                          : "",
                  in.g.num_vertices(), in.g.num_edges());
      if (single_source) std::printf(", source=%u", aopt.source);
      if (batch) std::printf(", batch of %zu sources", sources_.size());
      std::printf(", algorithm=%s", v.name);
      if (weighted) std::printf(", weights=%s", loaded.weights_origin.c_str());
      std::printf(", workers=%d\n", num_workers());
      std::printf("load: %s in %.4f s (%llu bytes mapped)\n",
                  loaded.mode.c_str(), loaded.seconds,
                  (unsigned long long)loaded.bytes_mapped);

      Tracer tracer;
      AlgoOptions opt = aopt;
      opt.tracer = &tracer;

      if (!doc) {
        doc.emplace(family.name, v.name, spec, in.g.num_vertices(),
                    in.g.num_edges());
        if (single_source) {
          doc->set_param("source", static_cast<std::uint64_t>(aopt.source));
        }
        for (const auto& record : params_) record(*doc);
      }

      if (repairing) {
        run_repair(v, loaded, in, opt, *doc);
        continue;
      }
      for (long long r = 0; r < common.repeats; ++r) {
        catalog::Run run = batch ? v.run_batch(in, {sources_, opt})
                                 : v.run(in, opt);
        print_stats(v.name, run.seconds, tracer);
        if (batch) {
          std::printf("batch: %zu sources in %.4f s (%.1f queries/s)\n",
                      run.outputs.size(), run.seconds,
                      run.seconds > 0
                          ? static_cast<double>(run.outputs.size()) /
                                run.seconds
                          : 0);
          if (r == 0 || run.seconds < best_batch_seconds) {
            best_batch_seconds = run.seconds;
          }
        }
        doc->add_trial(run.seconds, run.telemetry);
        if (r != 0) continue;
        if (serve.cold() && family.result_params != nullptr) {
          family.result_params(run.outputs.front(), *doc);
        }
        for (std::size_t i = 0; i < run.outputs.size(); ++i) {
          if (batch) std::printf("batch source %u: ", sources_[i]);
          std::printf("%s\n", family.result_line(run.outputs[i], in).c_str());
        }
      }
    }
    if (batch) doc->set_batch(sources_, best_batch_seconds);
    // The recorded load is the final open: warm when serving, so the
    // document shows the steady-state cost (0 new bytes on a registry hit).
    record_load(*doc, loaded);
    catalog::record_shard(*doc, loaded.graph);
    if (!repairing) catalog::record_delta(*doc, loaded.graph);
    serve.record(*doc);
    finish_metrics(common, *doc);
  }

  // Baseline settle on the pristine graph, then batch-by-batch apply +
  // in-place repair. Repeats don't apply: a batch folds into the overlay
  // exactly once.
  void run_repair(const catalog::Variant& v, LoadedGraph& loaded,
                  const catalog::Inputs& in, const AlgoOptions& opt,
                  MetricsDoc& doc) {
    catalog::Run base = v.run(in, opt);
    print_stats(v.name, base.seconds, *opt.tracer);
    doc.add_trial(base.seconds, base.telemetry);
    catalog::Output& result = base.outputs.front();
    std::vector<std::vector<EdgeUpdate>> log = read_update_log(updates);
    std::uint64_t resettled = 0, full_settled = 0;
    bool fallback = false;
    for (std::size_t b = 0; b < log.size(); ++b) {
      apply_updates(loaded.graph, log[b]);
      Tracer repair_tracer;
      auto t0 = std::chrono::steady_clock::now();
      IncrementalStats st = repair(loaded.graph, in, result, log[b]);
      double secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      resettled += st.resettled;
      full_settled += st.full_settled;
      fallback = fallback || st.fallback;
      std::printf("update batch %zu: %zu ops, resettled %llu of %llu "
                  "vertices in %.4f s%s\n",
                  b + 1, log[b].size(), (unsigned long long)st.resettled,
                  (unsigned long long)st.full_settled, secs,
                  st.fallback ? fallback_note : "");
      doc.add_trial(secs, repair_tracer.aggregate());
    }
    catalog::record_delta(doc, loaded.graph, resettled, full_settled,
                          fallback);
    std::printf("after updates: %s\n",
                v.family->result_line(result, in).c_str());
  }

  const char* family_;
  std::string algo_;
  bool algo_given_ = false;
  bool source_given_ = false;
  std::string sources_text_;
  std::vector<VertexId> sources_;
  std::vector<std::function<void(MetricsDoc&)>> params_;
};

}  // namespace pasgal::apps
