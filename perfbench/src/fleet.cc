// Fleet workloads: a whole FLSystem deployment advanced over a fixed
// simulated horizon.
//
//   fleet_plain         the paper's fleet regime: many idle devices toggling,
//                       checking in and being paced; a tiny logistic
//                       regression task with plain aggregation.
//   fleet_secagg_codec  the cohort-heavy regime: a next-word LM trained by
//                       two alternating tasks, one under Secure Aggregation
//                       and one on the plain path with the top-k + int8 codec.
//
// Timed run: repeats the job (build + run) until the time budget is spent and
// reports medians. Traced run: one untraced job, then the same job advanced
// with EventQueue::Step(), each step timed and binned by which public counter
// moved, plus layer probes for the work hidden inside a step.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/perfbench.h"
#include "perfbench/src/probes.h"
#include "src/common/json_writer.h"
#include "src/core/fl_system.h"
#include "src/data/blobs.h"
#include "src/data/text.h"
#include "src/graph/model_zoo.h"

namespace perfbench {
namespace {

using fl::Duration;
using fl::SimTime;

constexpr const char* kStore = "default";
constexpr const char* kSecAggTask = "secagg";
constexpr const char* kCodecTask = "codec";

struct FleetShape {
  bool secagg_codec = false;
  std::size_t devices = 0;
  Duration horizon;
  std::size_t examples_per_device = 0;   // fleet_plain: blobs examples
  std::size_t sentences_per_device = 0;  // fleet_secagg_codec: text
};

FleetShape ShapeFor(const std::string& workload) {
  FleetShape shape;
  if (workload == "fleet_plain") {
    shape.devices = 50'000;
    shape.horizon = fl::Hours(3);
    shape.examples_per_device = 30;
  } else {
    shape.secagg_codec = true;
    shape.devices = 10'000;
    shape.horizon = fl::Hours(3);
    shape.sentences_per_device = 5;
  }
  return shape;
}

// The bench FleetConfig: a US-centric single-dominant-timezone population in
// the selection-limited regime, with data provisioned once. Copied rather
// than included from bench/bench_common.h so that retuning a figure bench
// cannot move this benchmark's workload.
fl::core::FLSystemConfig FleetConfig(std::size_t devices, std::uint64_t seed) {
  fl::core::FLSystemConfig config;
  config.seed = seed;
  config.population.device_count = devices;
  config.population.tz_weights = {0.7, 0.2, 0.1};
  config.population.tz_offsets = {fl::Hours(0), fl::Hours(-1), fl::Hours(-2)};
  config.diurnal.swing = 8.0;
  config.population.mean_examples_per_sec = 1.5;
  config.selector_count = 4;
  config.coordinator_tick = fl::Seconds(15);
  config.stats_bucket = fl::Minutes(30);
  config.pace.rendezvous_period = fl::Minutes(3);
  config.pace.small_population_threshold = 100000;
  config.device_checkin_cadence = fl::Minutes(45);
  config.data_refresh_period = fl::Millis(0);
  return config;
}

fl::protocol::RoundConfig StandardRound(std::size_t goal) {
  fl::protocol::RoundConfig rc;
  rc.goal_count = goal;
  rc.overselection = 1.3;
  rc.selection_timeout = fl::Minutes(5);
  rc.min_selection_fraction = 0.6;
  rc.reporting_deadline = fl::Minutes(10);
  rc.min_reporting_fraction = 0.6;
  rc.devices_per_aggregator = 20;
  return rc;
}

constexpr std::size_t kSecAggGroup = 32;

fl::protocol::RoundConfig SecureRound() {
  fl::protocol::RoundConfig rc = StandardRound(64);
  rc.aggregation = fl::protocol::AggregationMode::kSecure;
  rc.devices_per_aggregator = kSecAggGroup;
  return rc;
}

fl::protocol::RoundConfig CodecRound() {
  fl::protocol::RoundConfig rc = StandardRound(64);
  rc.codec.topk_fraction = 0.25;
  rc.codec.quant_bits = 8;
  return rc;
}

// Everything a job is built from, generated once per run from the seed.
class FleetInputs {
 public:
  FleetInputs(FleetShape shape, std::uint64_t seed)
      : shape_(shape), seed_(seed) {
    fl::Rng model_rng(seed ^ 0x6d6f64656cull);
    if (shape_.secagg_codec) {
      fl::data::TextWorkloadParams params;
      params.vocab_size = 64;
      params.context = 3;
      text_ = std::make_shared<fl::data::TextWorkload>(params, seed + 5);
      model_ = fl::graph::BuildNextWordModel(64, 3, 16, 64, model_rng);
      hyper_.batch_size = 32;
      hyper_.epochs = 2;
      hyper_.learning_rate = 0.4f;
    } else {
      blobs_ = std::make_shared<fl::data::BlobsWorkload>(
          fl::data::BlobsParams{.classes = 4, .feature_dim = 8}, seed + 5);
      model_ = fl::graph::BuildLogisticRegression(8, 4, model_rng);
      hyper_.learning_rate = 0.2f;
      hyper_.epochs = 1;
    }
  }

  const FleetShape& shape() const { return shape_; }
  const fl::graph::Model& model() const { return model_; }
  const fl::plan::TrainingHyperparams& hyper() const { return hyper_; }

  std::vector<fl::data::Example> DeviceExamples(std::uint64_t device,
                                                SimTime now) const {
    return shape_.secagg_codec
               ? text_->UserExamples(device, shape_.sentences_per_device, now)
               : blobs_->UserExamples(device, shape_.examples_per_device, now);
  }

  std::unique_ptr<fl::core::FLSystem> Build() const {
    auto system = std::make_unique<fl::core::FLSystem>(
        FleetConfig(shape_.devices, seed_));
    if (shape_.secagg_codec) {
      system->AddTrainingTask(kSecAggTask, model_, hyper_, {}, SecureRound(),
                              fl::Seconds(30));
      system->AddTrainingTask(kCodecTask, model_, hyper_, {}, CodecRound(),
                              fl::Seconds(30));
    } else {
      system->AddTrainingTask("train", model_, hyper_, {}, StandardRound(25),
                              fl::Seconds(30));
    }
    system->ProvisionData([this](const fl::sim::DeviceProfile& profile,
                                 fl::core::DeviceAgent& agent, fl::Rng&,
                                 SimTime now) {
      agent.GetOrCreateStore(kStore).AddBatch(
          DeviceExamples(profile.id.value, now));
    });
    system->Start();
    return system;
  }

 private:
  FleetShape shape_;
  std::uint64_t seed_;
  fl::graph::Model model_;
  fl::plan::TrainingHyperparams hyper_;
  std::shared_ptr<fl::data::BlobsWorkload> blobs_;
  std::shared_ptr<fl::data::TextWorkload> text_;
};

// Public counters read after a job.
struct FleetCounters {
  std::size_t rounds_started = 0;  // rounds that reached an outcome
  std::size_t rounds_committed = 0;
  std::uint64_t model_version = 0;
  std::uint32_t model_crc = 0;
  fl::sim::EventQueue::Stats queue;
  std::uint64_t checkins = 0;
  std::uint64_t actor_messages = 0;
  std::uint64_t selector_accepted = 0;
  std::size_t completed = 0;  // participants whose update was accepted
  std::size_t assigned = 0;   // completed + aborted + dropped
  std::size_t dropped = 0;
  std::uint64_t upload_bytes = 0;
  std::size_t trainings = 0;  // '[' over finished session shapes
  double train_loss = 0;      // mean client loss, last tenth of commits
  std::size_t secagg_contributors = 0;
  std::size_t secagg_rounds = 0;
  std::size_t codec_contributors = 0;
};

FleetCounters Collect(fl::core::FLSystem& system) {
  FleetCounters c;
  for (const auto& round : system.stats().round_log()) {
    ++c.rounds_started;
    if (round.outcome == fl::protocol::RoundOutcome::kCommitted) {
      ++c.rounds_committed;
    }
  }
  c.model_version = system.model_store().version();
  c.model_crc = ModelCrc(system.model_store().Latest());
  c.queue = system.queue().stats();
  c.checkins = system.frontend().checkins();
  c.actor_messages = system.actor_system().messages_delivered();
  c.selector_accepted = system.stats().accepted();
  for (const auto& [round, counts] : system.stats().per_round()) {
    c.completed += counts.completed;
    c.dropped += counts.dropped;
    c.assigned += counts.completed + counts.aborted + counts.dropped;
  }
  c.upload_bytes = system.stats().total_upload_bytes();
  for (const auto& [shape, count] : system.stats().shapes().Ranked()) {
    c.trainings += count * static_cast<std::size_t>(
                               std::count(shape.begin(), shape.end(), '['));
  }
  const auto& history = system.model_store().history();
  const std::size_t tail = std::max<std::size_t>(1, history.size() / 10);
  double loss_sum = 0;
  std::size_t loss_n = 0;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const auto& record = history[i];
    if (record.task_name == kSecAggTask) {
      c.secagg_contributors += record.contributors;
      ++c.secagg_rounds;
    } else if (record.task_name == kCodecTask) {
      c.codec_contributors += record.contributors;
    }
    const auto loss = record.metrics.find("loss");
    if (i + tail >= history.size() && loss != record.metrics.end()) {
      loss_sum += loss->second.mean;
      ++loss_n;
    }
  }
  c.train_loss = loss_n == 0 ? 0 : loss_sum / static_cast<double>(loss_n);
  return c;
}

// What must repeat exactly for a given workload and seed.
bool SameOutputs(const FleetCounters& a, const FleetCounters& b) {
  return a.rounds_committed == b.rounds_committed &&
         a.model_version == b.model_version && a.model_crc == b.model_crc &&
         a.queue.fired == b.queue.fired;
}

struct TimedJob {
  double setup_s = 0;
  double run_s = 0;
  double rss_growth = 0;
  std::vector<double> round_ms;  // wall ms per round, see RoundWallMs
  FleetCounters counters;
};

// The run advances in fixed simulated slices (execution order is that of
// one RunFor) so the wall time at which each round commits can be read.
constexpr Duration kSlice = fl::Seconds(15);

// Wall ms per round over each window of two consecutive commits: on
// fleet_secagg_codec a window holds one round of each task, so the quantiles
// do not jump between the two tasks' costs.
std::vector<double> RoundWallMs(const std::vector<double>& commit_ms) {
  std::vector<double> out;
  for (std::size_t i = 2; i < commit_ms.size(); ++i) {
    out.push_back((commit_ms[i] - commit_ms[i - 2]) / 2);
  }
  return out;
}

TimedJob RunTimedJob(const FleetInputs& inputs) {
  TimedJob job;
  ReleaseFreedMemory();
  const std::size_t rss0 = CurrentRssBytes();
  const auto t0 = Clock::now();
  std::unique_ptr<fl::core::FLSystem> system = inputs.Build();
  job.setup_s = SecondsSince(t0);

  const SimTime deadline = system->now() + inputs.shape().horizon;
  const auto t1 = Clock::now();
  std::vector<double> commit_ms;
  for (SimTime t = system->now(); t < deadline;) {
    t = std::min(deadline, t + kSlice);
    system->RunUntil(t);
    const double now_ms = NanosSince(t1) / 1e6;
    commit_ms.resize(system->stats().rounds_committed(), now_ms);
  }
  job.run_s = SecondsSince(t1);
  job.round_ms = RoundWallMs(commit_ms);
  job.counters = Collect(*system);
  const std::size_t rss1 = CurrentRssBytes();
  job.rss_growth = rss1 > rss0 ? static_cast<double>(rss1 - rss0) : 0;
  system.reset();
  ReleaseFreedMemory();
  return job;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Dropout(const FleetCounters& c) {
  return Ratio(static_cast<double>(c.dropped), static_cast<double>(c.assigned));
}

struct CohortProbes {
  ClientUpdateProbe train;
  CodecProbe codec;
  SecAggProbe secagg;
};

// Client updates at the workload's shape, and on fleet_secagg_codec the codec
// and SecAgg probes over those updates; every probe's output is checked.
CohortProbes CheckProbes(const FleetInputs& inputs, std::uint64_t seed,
                         std::size_t devices, double dropout, Report& report) {
  CohortProbes probes;
  std::vector<std::vector<fl::data::Example>> device_data;
  for (std::size_t d = 0; d < devices; ++d) {
    device_data.push_back(inputs.DeviceExamples(d, SimTime{}));
  }
  const fl::plan::FLPlan plan =
      fl::plan::MakeTrainingPlan(inputs.model(), "probe", inputs.hyper(), {});
  probes.train = ProbeClientUpdate(plan, inputs.model().init_params,
                                   device_data, seed);
  report.Attempt(probes.train.ok, "client update probe");
  if (!inputs.shape().secagg_codec) return probes;

  probes.codec = ProbeCodec(probes.train.deltas, CodecRound().codec, seed);
  report.Attempt(probes.codec.ok,
                 "codec probe: decode outside the quantisation bound");
  const auto dropped = static_cast<std::size_t>(
      std::lround(dropout * static_cast<double>(kSecAggGroup)));
  const fl::protocol::RoundConfig secure = SecureRound();
  probes.secagg = ProbeSecAgg(
      kSecAggGroup, dropped, inputs.model().init_params.TotalParameters() + 1,
      secure.secagg.threshold_fraction, secure.secagg.ring_bits, seed);
  report.Attempt(probes.secagg.ok, "secagg probe: unmasked sum != plain sum");
  return probes;
}

void ReportTimed(const Options& options, const FleetInputs& inputs,
                 Report& report) {
  std::vector<TimedJob> jobs;
  const auto budget_t0 = Clock::now();
  while (jobs.size() < 2 ||
         (SecondsSince(budget_t0) < options.seconds && jobs.size() < 64)) {
    jobs.push_back(RunTimedJob(inputs));
    const TimedJob& job = jobs.back();
    const bool ok = job.counters.rounds_committed > 0 &&
                    job.counters.model_version > 0 &&
                    std::isfinite(job.counters.train_loss) &&
                    SameOutputs(job.counters, jobs.front().counters);
    report.Attempt(ok, "repeat " + std::to_string(jobs.size()) +
                           " differs from repeat 1 or committed nothing");
  }
  // Set-up is cheap next to a job: sample it a few more times, within a small
  // share of the budget, so its median is steadier.
  std::vector<double> setup;
  for (const TimedJob& job : jobs) setup.push_back(job.setup_s);
  const auto extra_t0 = Clock::now();
  while (setup.size() < 7 && SecondsSince(extra_t0) < 0.1 * options.seconds) {
    const auto t0 = Clock::now();
    auto system = inputs.Build();
    setup.push_back(SecondsSince(t0));
    system.reset();
    ReleaseFreedMemory();
  }
  if (inputs.shape().secagg_codec) {
    CheckProbes(inputs, options.seed, /*devices=*/4, Dropout(jobs[0].counters),
                report);
  }
  const FleetCounters& c = jobs.front().counters;
  const double devices = static_cast<double>(inputs.shape().devices);
  std::vector<double> run, rounds, updates, sim_rate, rss, gaps;
  for (const TimedJob& job : jobs) {
    run.push_back(job.run_s);
    rounds.push_back(Ratio(static_cast<double>(job.counters.rounds_committed),
                           job.run_s));
    updates.push_back(
        Ratio(static_cast<double>(job.counters.completed), job.run_s));
    sim_rate.push_back(Ratio(
        static_cast<double>(inputs.shape().horizon.millis) / 1e3, job.run_s));
    rss.push_back(job.rss_growth / devices);
    gaps.insert(gaps.end(), job.round_ms.begin(), job.round_ms.end());
  }
  const double passed = static_cast<double>(report.attempted() -
                                            report.failed()) /
                        static_cast<double>(report.attempted());
  const double round_fail =
      Ratio(static_cast<double>(c.rounds_started - c.rounds_committed),
            static_cast<double>(c.rounds_started));
  const double dropout = Dropout(c);

  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %zu devices, %.0f sim-h, %zu repeats; per repeat %zu "
                "rounds committed of %zu, %.2f M events, %llu check-ins, "
                "%llu actor messages, model v%llu crc %08x",
                options.workload.c_str(), inputs.shape().devices,
                static_cast<double>(inputs.shape().horizon.millis) / 3.6e6,
                jobs.size(),
                c.rounds_committed, c.rounds_started,
                static_cast<double>(c.queue.fired) / 1e6,
                static_cast<unsigned long long>(c.checkins),
                static_cast<unsigned long long>(c.actor_messages),
                static_cast<unsigned long long>(c.model_version),
                static_cast<unsigned>(c.model_crc));
  report.Note(line);
  std::snprintf(line, sizeof(line),
                "also: sim_s_per_wall_s %.6g s/s, round_fail_frac %.6g, "
                "dropout_frac %.6g, train_loss %.6g loss, check_fail_frac "
                "%.6g (round_ms from %zu windows)",
                Median(sim_rate), round_fail, dropout, c.train_loss,
                1.0 - passed, gaps.size());
  report.Note(line);
  std::string per_repeat = "run_s per repeat:";
  for (double s : run) {
    std::snprintf(line, sizeof(line), " %.3f", s);
    per_repeat += line;
  }
  per_repeat += "; setup_s:";
  for (double s : setup) {
    std::snprintf(line, sizeof(line), " %.3f", s);
    per_repeat += line;
  }
  report.Note(per_repeat);

  report.Set("setup_s", Median(setup), "s");
  report.Set("rounds_per_s", Median(rounds), "1/s");
  report.Set("client_updates_per_s", Median(updates), "1/s");
  report.Set("round_ms_p50", Quantile(gaps, 0.5), "ms");
  report.Set("round_ms_p90", Quantile(gaps, 0.9), "ms");
  report.Set("peak_rss_mb",
             static_cast<double>(fl::PeakRssBytes()) / (1024.0 * 1024.0),
             "MiB");
  report.Set("bytes_per_device", Median(rss), "B");
  report.Set("upload_bytes_per_update",
             Ratio(static_cast<double>(c.upload_bytes),
                   static_cast<double>(c.completed)),
             "B");
  report.Set("round_success_frac", 1.0 - round_fail, "frac");
  report.Set("report_frac", 1.0 - dropout, "frac");
  report.Set("check_pass_frac", passed, "frac");
}

// ---------------------------------------------------------------------------
// Traced run.
// ---------------------------------------------------------------------------

struct Bin {
  double ns = 0;
  std::uint64_t steps = 0;
  double MeanNs() const { return Ratio(ns, static_cast<double>(steps)); }
};

struct TracedJob {
  double loop_s = 0;
  Bin checkin, actor, other;
  std::vector<float> step_ns;
  FleetCounters counters;
};

TracedJob RunTracedJob(const FleetInputs& inputs) {
  TracedJob job;
  std::unique_ptr<fl::core::FLSystem> system = inputs.Build();
  fl::sim::EventQueue& queue = system->queue();
  const auto& frontend = system->frontend();
  const auto& actors = system->actor_system();
  const auto& stats = system->stats();
  const SimTime deadline = system->now() + inputs.shape().horizon;
  job.step_ns.reserve(static_cast<std::size_t>(inputs.shape().devices) * 32);

  const auto t0 = Clock::now();
  while (queue.now() < deadline) {
    const std::uint64_t checkins = frontend.checkins();
    const std::uint64_t messages = actors.messages_delivered();
    const std::size_t rounds = stats.rounds_committed();
    const auto s0 = Clock::now();
    if (!queue.Step()) break;
    const double ns = NanosSince(s0);
    job.step_ns.push_back(static_cast<float>(ns));
    // A commit is an actor step even when a check-in landed in it too.
    const bool committed = stats.rounds_committed() != rounds;
    Bin& bin = !committed && frontend.checkins() != checkins ? job.checkin
               : committed || actors.messages_delivered() != messages
                   ? job.actor
                   : job.other;
    bin.ns += ns;
    ++bin.steps;
  }
  job.loop_s = SecondsSince(t0);
  job.counters = Collect(*system);
  return job;
}

void NoteDifference(Report& report, const char* counter, double timed,
                    double traced) {
  if (timed == traced) return;
  char line[160];
  std::snprintf(line, sizeof(line),
                "trace differs: %s timed %.0f vs traced %.0f (Step() stops "
                "at the first event at or past the deadline)",
                counter, timed, traced);
  report.Note(line);
}

void ReportTraced(const Options& options, const FleetInputs& inputs,
                  Report& report) {
  // Untraced jobs on both sides of the traced one: the untraced wall time
  // (the denominator of every share) is their mean.
  const TimedJob timed = RunTimedJob(inputs);
  const TracedJob traced = RunTracedJob(inputs);
  const TimedJob timed_after = RunTimedJob(inputs);
  const FleetCounters& c = timed.counters;
  const double run_s = (timed.run_s + timed_after.run_s) / 2;
  report.Attempt(c.rounds_committed > 0 &&
                     SameOutputs(c, timed_after.counters),
                 "untraced jobs committed nothing or differ");

  NoteDifference(report, "sim.events_fired", static_cast<double>(c.queue.fired),
                 static_cast<double>(traced.counters.queue.fired));
  NoteDifference(report, "rounds_committed",
                 static_cast<double>(c.rounds_committed),
                 static_cast<double>(traced.counters.rounds_committed));
  NoteDifference(report, "device.checkins", static_cast<double>(c.checkins),
                 static_cast<double>(traced.counters.checkins));
  NoteDifference(report, "actor.messages",
                 static_cast<double>(c.actor_messages),
                 static_cast<double>(traced.counters.actor_messages));

  // --- probes at the workload's shapes ---
  const AttestationProbe attest = ProbeAttestation(options.seed);
  report.Attempt(attest.ok, "attestation probe");

  const CohortProbes probes =
      CheckProbes(inputs, options.seed,
                  /*devices=*/inputs.shape().secagg_codec ? 24 : 64,
                  Dropout(c), report);
  const ClientUpdateProbe& train = probes.train;
  const CodecProbe& codec = probes.codec;
  const SecAggProbe& secagg = probes.secagg;
  const double merge_ms = ProbeAccumulateMs(inputs.model().init_params,
                                            train.deltas, train.weights);

  // --- call counts of the run, apportioned to the two tasks ---
  const double run_ns = run_s * 1e9;
  const double trainings = static_cast<double>(c.trainings);
  const double contributors =
      static_cast<double>(c.secagg_contributors + c.codec_contributors);
  const double secagg_part =
      Ratio(static_cast<double>(c.secagg_contributors), contributors);
  const double codec_part =
      Ratio(static_cast<double>(c.codec_contributors), contributors);
  const double encodes = trainings * codec_part;
  const double decodes = static_cast<double>(c.codec_contributors);
  const double secagg_clients = trainings * secagg_part;
  const double selection = static_cast<double>(SecureRound().SelectionTarget());
  const double cohorts =
      static_cast<double>(c.secagg_rounds) *
      std::ceil(selection / static_cast<double>(kSecAggGroup));

  const double train_ns = Mean(train.ms) * 1e6 * trainings;
  const double attest_ns = attest.pair_ns * static_cast<double>(c.checkins);
  const double codec_ns =
      (codec.encode_us * encodes + codec.decode_us * decodes) * 1e3;
  const double secagg_client_ms =
      secagg.share_keys_ms + secagg.mask_input_ms + secagg.unmask_ms;
  const double secagg_ns =
      (secagg_client_ms * secagg_clients + secagg.finalize_ms * cohorts) * 1e6;

  // Work inside "other" steps that the probes explain: the device side.
  const double device_side_ns = attest_ns / 2 + train_ns +
                                codec.encode_us * encodes * 1e3 +
                                secagg_client_ms * secagg_clients * 1e6;
  const double stepped_ns =
      traced.checkin.ns + traced.actor.ns + traced.other.ns;
  const double loop_ns = traced.loop_s * 1e9;
  const double unattributed =
      std::max(0.0, traced.other.ns - device_side_ns) +
      std::max(0.0, loop_ns - stepped_ns);

  std::vector<double> step_ns(traced.step_ns.begin(), traced.step_ns.end());

  char line[200];
  std::snprintf(line, sizeof(line),
                "%s traced: untraced run %.3f s, traced loop %.3f s, %zu "
                "steps (checkin %llu, actor %llu, other %llu)",
                options.workload.c_str(), run_s, traced.loop_s,
                traced.step_ns.size(),
                static_cast<unsigned long long>(traced.checkin.steps),
                static_cast<unsigned long long>(traced.actor.steps),
                static_cast<unsigned long long>(traced.other.steps));
  report.Note(line);

  report.Set("sim.events_scheduled", static_cast<double>(c.queue.scheduled),
             "count");
  report.Set("sim.events_fired", static_cast<double>(c.queue.fired), "count");
  report.Set("sim.events_cancelled", static_cast<double>(c.queue.cancelled),
             "count");
  report.Set("sim.events_cascaded", static_cast<double>(c.queue.cascaded),
             "count");
  report.Set("sim.heap_callbacks", static_cast<double>(c.queue.heap_callbacks),
             "count");
  report.Set("sim.step_ns_p50", Quantile(step_ns, 0.5), "ns");
  report.Set("sim.step_ns_p99", Quantile(step_ns, 0.99), "ns");
  report.Set("device.checkins", static_cast<double>(c.checkins), "count");
  report.Set("device.attest_pair_ns", attest.pair_ns, "ns");
  report.Set("device.attest_share", Ratio(attest_ns, run_ns), "frac");
  report.Set("actor.messages", static_cast<double>(c.actor_messages), "count");
  report.Set("actor.step_ns", traced.actor.MeanNs(), "ns");
  report.Set("actor.share", Ratio(traced.actor.ns, loop_ns), "frac");
  report.Set("core.checkin_step_ns", traced.checkin.MeanNs(), "ns");
  report.Set("core.other_step_ns", traced.other.MeanNs(), "ns");
  report.Set("server.checkin_accept_ratio",
             Ratio(static_cast<double>(c.selector_accepted),
                   static_cast<double>(c.checkins)),
             "frac");
  report.Set("server.rounds_started", static_cast<double>(c.rounds_started),
             "count");
  report.Set("server.update_yield",
             Ratio(static_cast<double>(c.completed), trainings), "frac");
  report.Set("fedavg.client_update_ms_p50", Quantile(train.ms, 0.5), "ms");
  report.Set("fedavg.client_update_ms_p90", Quantile(train.ms, 0.9), "ms");
  report.Set("fedavg.train_share", Ratio(train_ns, run_ns), "frac");
  report.Set("fedavg.merge_ms", merge_ms, "ms");
  report.Set("fedavg.encode_us", codec.encode_us, "us");
  report.Set("fedavg.decode_us", codec.decode_us, "us");
  report.Set("fedavg.codec_ratio", codec.ratio, "x");
  report.Set("fedavg.codec_share", Ratio(codec_ns, run_ns), "frac");
  report.Set("secagg.share_keys_ms", secagg.share_keys_ms, "ms");
  report.Set("secagg.mask_input_ms", secagg.mask_input_ms, "ms");
  report.Set("secagg.unmask_ms", secagg.unmask_ms, "ms");
  report.Set("secagg.finalize_ms", secagg.finalize_ms, "ms");
  report.Set("secagg.prg_words", static_cast<double>(secagg.prg_words),
             "count");
  report.Set("secagg.modexps", static_cast<double>(secagg.modexps), "count");
  report.Set("secagg.share", Ratio(secagg_ns, run_ns), "frac");
  report.Set("pool.busy_frac", 0, "frac");
  report.Set("pool.straggler_ratio", 0, "x");
  report.Set("trace.overhead_frac", Ratio(traced.loop_s, run_s) - 1.0,
             "frac");
  report.Set("trace.unattributed_frac", Ratio(unattributed, loop_ns), "frac");
}

}  // namespace

void RunFleet(const Options& options, Report& report) {
  const FleetInputs inputs(ShapeFor(options.workload), options.seed);
  if (options.trace) {
    ReportTraced(options, inputs, report);
  } else {
    ReportTimed(options, inputs, report);
  }
}

}  // namespace perfbench
