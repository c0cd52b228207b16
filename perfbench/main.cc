// The repository benchmark: boots the gemrec serve stack in-process
// for one workload, drives it over wire-v2 with an open-loop load
// generator, checks sampled replies against the exact oracles and
// prints every metric. See README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch-dir DIR]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer ones
// with --trace 1. The exit code is non-zero when any reply disagreed
// with its oracle, or when set-up failed.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "harness.h"
#include "obs/exposition.h"
#include "recommend/query_kinds.h"
#include "serving/ingest_journal.h"
#include "shard/merger.h"
#include "trace.h"

namespace gemrec::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch_dir = ".bench_build/scratch";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scratch-dir") {
      args->scratch_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

uint32_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
}

double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return obs::SamplePercentile(values, p);
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

void Accumulate(obs::HistogramData* sum, const obs::HistogramData& h) {
  sum->count += h.count;
  sum->sum += h.sum;
  for (size_t b = 0; b < sum->buckets.size(); ++b) {
    sum->buckets[b] += h.buckets[b];
  }
}

/// Sums the histogram `name` and, with `labelled`, every
/// `name{...}` series (the per-shard copies a coordinator scrape
/// carries).
obs::HistogramData Hist(const obs::MetricsSnapshot& snap,
                        const std::string& name, bool labelled) {
  obs::HistogramData sum;
  for (const obs::MetricValue& m : snap.metrics) {
    if (m.type != obs::MetricType::kHistogram) continue;
    if (m.name != name && !(labelled && m.name.rfind(name + "{", 0) == 0)) {
      continue;
    }
    Accumulate(&sum, m.histogram);
  }
  return sum;
}

uint64_t Count(const obs::MetricsSnapshot& snap, const std::string& name,
               bool labelled) {
  uint64_t sum = 0;
  for (const obs::MetricValue& m : snap.metrics) {
    if (m.type != obs::MetricType::kCounter) continue;
    if (m.name == name || (labelled && m.name.rfind(name + "{", 0) == 0)) {
      sum += m.counter;
    }
  }
  return sum;
}

/// Registry view of one phase: the difference of two scrapes.
struct Window {
  obs::MetricsSnapshot before, after;
  obs::HistogramData Hist(const std::string& name, bool labelled) const {
    return perfbench::Hist(after, name, labelled)
        .MinusBaseline(perfbench::Hist(before, name, labelled));
  }
  uint64_t Count(const std::string& name, bool labelled) const {
    return perfbench::Count(after, name, labelled) -
           perfbench::Count(before, name, labelled);
  }
};

/// Share of the serve stacks' queries answered from their result
/// caches over a scrape window (averaged over the shards' caches).
double ServerHitShare(const Window& window) {
  const uint64_t queries = window.Count("gemrec_service_queries_total", true);
  return queries == 0 ? 0.0
                      : static_cast<double>(window.Count(
                            "gemrec_service_cache_hits_total", true)) /
                            queries;
}

obs::MetricsSnapshot Scrape(WireChannel* channel) {
  auto snap = channel->client()->Stats();
  GEMREC_CHECK(snap.ok()) << "stats scrape: " << snap.status().ToString();
  return std::move(snap).value();
}

/// One timed phase as measured: generator view, CPU and registry.
struct Measured {
  PhaseSpec spec;
  PhaseResult result;
  Window window;
  double cpu_us_per_query = 0;
  uint64_t mismatches = 0;
  uint64_t verified = 0;

  double p(double q) const { return Percentile(result.latency_us, q); }
  /// Replies per second completed inside the phase's schedule.
  double qps() const {
    const auto in_window =
        std::count_if(result.done_s.begin(), result.done_s.end(),
                      [&](double t) { return t < spec.seconds; });
    return in_window / spec.seconds;
  }
  double hit_share() const {
    return result.ok == 0 ? 0.0
                          : static_cast<double>(result.cache_hits) / result.ok;
  }
  double late(double q) const {
    return result.late_us.empty() ? 0.0 : Percentile(result.late_us, q);
  }
  /// An open-loop phase fell behind its schedule when 1% of its sends
  /// left more than kMaxLateUs after their intended time. VM wake-up
  /// hiccups on an idle host are 1.5-2.8 ms at p999.
  static constexpr double kMaxLateUs = 5000;
  bool valid() const { return !spec.open_loop || late(0.99) <= kMaxLateUs; }
};

/// Warm-up: closed-loop windows of kWarmupWindowS seconds under the
/// workload's own traffic, until the result caches are at steady
/// state. That is when each cache has taken kWarmupFills times its
/// capacity in misses (so it is full and has turned over) and the
/// server-side hit share of the last two windows agrees within
/// kWarmupTolerance; at most kMaxWarmupWindows windows. Windows are
/// timed rather than counted so that, with writes on, each spans
/// several publishes.
inline constexpr double kWarmupWindowS = 0.5;
inline constexpr double kWarmupFills = 2.0;
inline constexpr double kWarmupTolerance = 0.02;
inline constexpr int kMaxWarmupWindows = 16;

struct Warmup {
  uint64_t requests = 0;
  int windows = 0;
  /// Server-side hit share of the last two windows.
  double hit_share_prev = 0;
  double hit_share_last = 0;
  bool steady = false;
  /// Every generator thread got kGeneratorNice.
  bool raised_priority = true;
};

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec), nproc_(Nproc()) {
    gen_threads_ = std::clamp<size_t>(nproc_ / 2, 1, 2);
    const size_t conns = std::max<size_t>(
        gen_threads_, nproc_ - (spec.write_rate > 0 ? 1 : 0));
    conns_per_thread_.assign(gen_threads_, conns / gen_threads_);
    for (size_t i = 0; i < conns % gen_threads_; ++i) ++conns_per_thread_[i];
  }

  int Run();

 private:
  Status SetUp();
  void WarmUp();
  void TearDown();
  GeneratorOptions Generator(size_t max_misses = 0);
  std::vector<std::vector<Channel*>> WireTopology();
  Measured Measure(const PhaseSpec& phase, const GeneratorOptions& options,
                   const std::vector<std::vector<Channel*>>& channels,
                   bool scrape);
  void Verify(Measured* m);
  void PrintPhase(const Measured& m);
  int RunTimed();
  int RunTraced();
  std::string MetaJson() const;
  void PrintResult(const std::vector<std::pair<std::string, double>>& metrics,
                   const std::map<std::string, std::string>& units);

  Args args_;
  const WorkloadSpec& spec_;
  uint32_t nproc_;
  size_t gen_threads_;
  std::vector<size_t> conns_per_thread_;

  std::unique_ptr<Model> model_;
  std::unique_ptr<Stack> stack_;
  std::vector<std::unique_ptr<WireChannel>> wires_;
  std::unique_ptr<SnapshotTap> tap_;
  std::unique_ptr<EpochWatch> watch_;
  std::unique_ptr<Writer> writer_;
  std::string scratch_;

  std::vector<double> setup_s_;
  std::vector<uint64_t> fingerprints_;
  Warmup warmup_;
  /// Server-side hit share over the timed phases.
  double timed_hit_share_ = 0;
  std::vector<Measured> phases_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
  std::ostringstream extra_;  // report-only metrics, as JSON members
};

PhaseSpec MakePhase(const char* name, bool open, double rate, uint32_t window,
                    double seconds, uint64_t seed) {
  PhaseSpec phase;
  phase.name = name;
  phase.open_loop = open;
  phase.rate = rate;
  phase.window = window;
  phase.seconds = seconds;
  phase.seed = seed;
  return phase;
}

/// The workload's traffic distribution; callers set the draw seed.
StreamOptions StreamFor(const WorkloadSpec& spec) {
  StreamOptions options;
  options.num_users = kUsers;
  options.zipf_s = spec.zipf_s;
  options.mix = spec.mix;
  options.top_n = kTopN;
  options.popularity_seed = kModelSeed;
  return options;
}

GeneratorOptions Bench::Generator(size_t max_misses) {
  GeneratorOptions options;
  options.stream = StreamFor(spec_);
  options.tap = stack_->sharded() ? nullptr : tap_.get();
  options.watch = watch_.get();
  options.max_misses_per_thread = max_misses;
  return options;
}

std::vector<std::vector<Channel*>> Bench::WireTopology() {
  std::vector<std::vector<Channel*>> topology(gen_threads_);
  size_t next = 0;
  for (size_t t = 0; t < gen_threads_; ++t) {
    for (size_t c = 0; c < conns_per_thread_[t]; ++c) {
      topology[t].push_back(wires_[next++].get());
    }
  }
  return topology;
}

Status Bench::SetUp() {
  const auto t0 = Clock::now();
  scratch_ = args_.scratch_dir + "/" + spec_.name + "-" +
             std::to_string(::getpid());
  std::filesystem::remove_all(scratch_);
  std::filesystem::create_directories(scratch_);
  model_ = BuildModel(kModelSeed);
  GEMREC_ASSIGN_OR_RETURN(
      stack_, Stack::Start(*model_, spec_, std::min(4u, nproc_), scratch_));
  size_t total = 0;
  for (size_t n : conns_per_thread_) total += n;
  for (size_t c = 0; c < total; ++c) {
    GEMREC_ASSIGN_OR_RETURN(auto wire, WireChannel::Connect(stack_->port()));
    wires_.push_back(std::move(wire));
  }
  tap_ = std::make_unique<SnapshotTap>(stack_->service());
  watch_ = std::make_unique<EpochWatch>();
  if (spec_.write_rate > 0) {
    writer_ = std::make_unique<Writer>(stack_->port(), *model_,
                                       spec_.write_rate, args_.seed,
                                       watch_.get());
    GEMREC_RETURN_IF_ERROR(writer_->Start());
  }
  WarmUp();
  setup_s_.push_back(Seconds(Clock::now() - t0));
  fingerprints_.push_back(model_->Fingerprint());
  return Status::Ok();
}

void Bench::WarmUp() {
  // Fills the result caches to their steady state under the workload's
  // own traffic, grows every worker's scratch and, with writes on,
  // settles the publish cadence. Part of set-up; no figure comes from
  // it.
  const bool tracing = Tracer::enabled();
  Tracer::Enable(false);  // keep warm-up sends out of the client spans
  const size_t caches = stack_->sharded() ? 2 : 1;
  const double fill_misses = kWarmupFills * caches *
                             stack_->service_options().cache_capacity;
  const auto topology = WireTopology();
  warmup_ = Warmup();
  double misses = 0;
  while (!warmup_.steady && warmup_.windows < kMaxWarmupWindows) {
    const PhaseSpec window =
        MakePhase("warmup", false, 0, kWindow, kWarmupWindowS,
                  args_.seed * 1000 + 500 + warmup_.windows);
    Measured m = Measure(window, Generator(), topology, true);
    const double queries =
        m.window.Count("gemrec_service_queries_total", true);
    misses +=
        queries - m.window.Count("gemrec_service_cache_hits_total", true);
    warmup_.hit_share_prev = warmup_.hit_share_last;
    warmup_.hit_share_last = ServerHitShare(m.window);
    warmup_.requests += m.result.attempted;
    warmup_.raised_priority &= m.result.raised_priority;
    ++warmup_.windows;
    warmup_.steady = warmup_.windows >= 2 && misses >= fill_misses &&
                     std::abs(warmup_.hit_share_last -
                              warmup_.hit_share_prev) <= kWarmupTolerance;
  }
  Tracer::Enable(tracing);
  tap_->Clear();
}

void Bench::TearDown() {
  writer_.reset();
  wires_.clear();
  tap_.reset();
  stack_.reset();
  model_.reset();
  if (!scratch_.empty()) std::filesystem::remove_all(scratch_);
}

Measured Bench::Measure(const PhaseSpec& phase,
                        const GeneratorOptions& options,
                        const std::vector<std::vector<Channel*>>& channels,
                        bool scrape) {
  Measured m;
  m.spec = phase;
  if (scrape) m.window.before = Scrape(wires_[0].get());
  const double writer0 = writer_ ? writer_->cpu_s() : 0.0;
  const double cpu0 = ProcessCpuSeconds();
  m.result = RunPhase(phase, options, channels);
  const double cpu = ProcessCpuSeconds() - cpu0 - m.result.generator_cpu_s -
                     (writer_ ? writer_->cpu_s() - writer0 : 0.0);
  if (scrape) m.window.after = Scrape(wires_[0].get());
  m.cpu_us_per_query = m.result.ok == 0 ? 0.0 : cpu * 1e6 / m.result.ok;
  return m;
}

void Bench::Verify(Measured* m) {
  for (const OracleSample& sample : m->result.samples) {
    std::vector<recommend::Recommendation> want;
    if (sample.snapshot != nullptr) {
      want = OracleAnswer(*sample.snapshot, sample.request);
    } else {
      serving::QueryRequest request = sample.request;
      request.bypass_cache = true;
      want = stack_->service()->Query(request).items;
    }
    const std::string diff = CompareItems(sample.response.items, want);
    ++m->verified;
    if (!diff.empty()) {
      ++m->mismatches;
      std::fprintf(stderr, "oracle mismatch in %s: user %u kind %s: %s\n",
                   m->spec.name.c_str(), sample.request.user,
                   recommend::QueryKindName(sample.request.kind),
                   diff.c_str());
    }
  }
  m->result.samples.clear();
  tap_->Clear();
  mismatches_ += m->mismatches;
}

void Bench::PrintPhase(const Measured& m) {
  const PhaseResult& r = m.result;
  std::printf(
      "phase %-9s %s rate=%.0f window=%u  attempted=%" PRIu64 " ok=%" PRIu64
      " failed=%" PRIu64 "  qps=%.1f  p50=%.1fus p99=%.1fus p999=%.1fus "
      "(n=%zu)  hit_share=%.3f  cpu/q=%.1fus  late p50/p99=%.1f/%.1fus  "
      "oracle %" PRIu64 "/%" PRIu64 " ok%s\n",
      m.spec.name.c_str(), m.spec.open_loop ? "open  " : "closed",
      m.spec.rate, m.spec.window, r.attempted, r.ok, r.failed(), m.qps(),
      m.p(0.5), m.p(0.99), m.p(0.999), r.latency_us.size(), m.hit_share(),
      m.cpu_us_per_query, m.late(0.5), m.late(0.99),
      m.verified - m.mismatches, m.verified, m.valid() ? "" : "  INVALID");
}

std::string Bench::MetaJson() const {
  std::ostringstream out;
  out.precision(10);
  out << "{\"workload\":\"" << spec_.name << "\",\"seed\":" << args_.seed
      << ",\"trace\":" << (args_.trace ? 1 : 0) << ",\"nproc\":" << nproc_
      << ",\"nproc_source\":\"sched_getaffinity\""

      << ",\"server\":{\"reactors\":"
      << stack_->server_options().num_reactors
      << ",\"front_reactors\":" << stack_->front_reactors()
      << ",\"workers\":" << stack_->service_options().num_workers
      << ",\"cache_capacity\":" << stack_->service_options().cache_capacity
      << ",\"max_batch\":" << stack_->service_options().max_batch
      << ",\"max_in_flight\":" << stack_->server_options().max_in_flight
      << ",\"retrieval\":\""
      << (stack_->service_options().use_batch_ta ? "quantized_batched"
                                                 : "exact_ta")
      << "\""
      << ",\"shards\":" << (spec_.sharded ? 2 : 1) << "}"
      << ",\"model\":{\"users\":" << kUsers << ",\"events\":" << kEvents
      << ",\"dim\":" << kDim << ",\"train_steps\":" << kTrainSteps
      << ",\"top_k_events_per_partner\":" << kTopKEventsPerPartner
      << ",\"top_n\":" << kTopN << ",\"seed\":" << kModelSeed << "}"
      << ",\"load\":{\"generator_threads\":" << gen_threads_
      << ",\"connections\":" << wires_.size()
      << ",\"writer_connections\":" << (writer_ ? 1 : 0)
      << ",\"generator_nice\":"
      << (warmup_.raised_priority ? kGeneratorNice : 0)
      << ",\"zipf_s\":" << spec_.zipf_s << ",\"write_rate\":"
      << spec_.write_rate << ",\"mix\":{";
  for (size_t k = 0; k < kNumRequestKinds; ++k) {
    out << (k ? "," : "") << "\""
        << RequestKindName(static_cast<RequestKind>(k))
        << "\":" << spec_.mix[k];
  }
  out << "},\"window\":" << kWindow << "}"
      << ",\"warmup\":{\"requests\":" << warmup_.requests
      << ",\"windows\":" << warmup_.windows
      << ",\"steady\":" << (warmup_.steady ? "true" : "false")
      << ",\"hit_share_prev\":" << warmup_.hit_share_prev
      << ",\"hit_share_last\":" << warmup_.hit_share_last
      << ",\"timed_hit_share\":" << timed_hit_share_ << "}"
      << ",\"setup_s_runs\":[";
  for (size_t i = 0; i < setup_s_.size(); ++i) {
    out << (i ? "," : "") << setup_s_[i];
  }
  out << "],\"phases\":[";
  for (size_t i = 0; i < phases_.size(); ++i) {
    const Measured& m = phases_[i];
    const PhaseResult& r = m.result;
    out << (i ? "," : "") << "{\"name\":\"" << m.spec.name
        << "\",\"model\":\"" << (m.spec.open_loop ? "open" : "closed")
        << "\",\"rate\":" << m.spec.rate << ",\"window\":" << m.spec.window
        << ",\"seconds\":" << m.spec.seconds << ",\"attempted\":"
        << r.attempted << ",\"ok\":" << r.ok << ",\"failed\":" << r.failed()
        << ",\"latency_samples\":" << r.latency_us.size()
        << ",\"qps\":" << m.qps() << ",\"p50_us\":" << m.p(0.5)
        << ",\"p90_us\":" << m.p(0.9) << ",\"p99_us\":" << m.p(0.99)
        << ",\"hit_share\":" << m.hit_share()
        << ",\"cpu_us_per_query\":" << m.cpu_us_per_query
        << ",\"late_p50_us\":" << m.late(0.5)
        << ",\"late_p99_us\":" << m.late(0.99)
        << ",\"late_samples\":" << r.late_us.size()
        << ",\"oracle_checked\":" << m.verified
        << ",\"oracle_mismatches\":" << m.mismatches
        << ",\"valid\":" << (m.valid() ? "true" : "false") << ",\"kinds\":{";
    for (size_t k = 0; k < kNumRequestKinds; ++k) {
      out << (k ? "," : "") << "\""
          << RequestKindName(static_cast<RequestKind>(k))
          << "\":" << r.kinds[k];
    }
    out << "}}";
  }
  out << "]" << extra_.str() << "}";
  return out.str();
}

void Bench::PrintResult(
    const std::vector<std::pair<std::string, double>>& metrics,
    const std::map<std::string, std::string>& units) {
  std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
  for (const auto& [name, value] : metrics) {
    std::printf("%-34s %16.4f  %s\n", name.c_str(), value,
                units.at(name).c_str());
  }
  std::printf("META %s\n", MetaJson().c_str());
  std::ostringstream out;
  out.precision(12);
  out << "{\"correct\": " << (mismatches_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].first
        << "\": {\"value\": " << metrics[i].second << ", \"unit\": \""
        << units.at(metrics[i].first) << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  std::printf("workload %s (%s), seed %" PRIu64 ", nproc %u, trace %d\n",
              spec_.name, spec_.why, args_.seed, nproc_, args_.trace ? 1 : 0);
  // The timed run sets up three times and reports the median; every
  // set-up must produce the same model bit for bit.
  const int setups = args_.trace ? 1 : 3;
  Tracer::Enable(args_.trace);
  for (int i = 0; i < setups; ++i) {
    if (i > 0) TearDown();
    const Status s = SetUp();
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      TearDown();
      return 2;
    }
    std::printf("setup %d: %.3fs (generate %.3fs, graphs %.3fs, train "
                "%.3fs, snapshot %.3fs); warm-up %" PRIu64
                " requests in %d windows, server hit share %.3f then "
                "%.3f%s\n",
                i, setup_s_.back(), model_->generate_s, model_->graphs_s,
                model_->train_s, stack_->snapshot_build_s(),
                warmup_.requests, warmup_.windows, warmup_.hit_share_prev,
                warmup_.hit_share_last,
                warmup_.steady ? "" : " (not steady at the window cap)");
  }
  Tracer::Enable(false);
  if (std::adjacent_find(fingerprints_.begin(), fingerprints_.end(),
                         std::not_equal_to<>()) != fingerprints_.end()) {
    std::fprintf(stderr, "set-ups trained different models\n");
    ++mismatches_;
  }
  const int rc = args_.trace ? RunTraced() : RunTimed();
  TearDown();
  if (rc != 0) return rc;
  return mismatches_ == 0 ? 0 : 1;
}

int Bench::RunTimed() {
  // The three phases run as kRounds interleaved rounds. CPU steal and
  // stalls on a shared host only ever slow a round down, so a latency
  // or throughput figure is the favourable quartile over the rounds
  // that kept their schedule (lower quartile of latency, upper of
  // throughput), and CPU per query, which steal does not inflate, is
  // the median.
  constexpr int kRounds = 8;
  const double round_s = args_.seconds / kRounds;
  const auto topology = WireTopology();
  struct Rounds {
    std::vector<double> qps, cpu, low_p50, low_p99, high_p50, high_p99;
    void Keep(const Measured& max, const Measured& low, const Measured& high) {
      qps.push_back(max.qps());
      cpu.push_back(high.cpu_us_per_query);
      low_p50.push_back(low.p(0.5));
      low_p99.push_back(low.p(0.99));
      high_p50.push_back(high.p(0.5));
      high_p99.push_back(high.p(0.99));
    }
  } kept;
  std::vector<double> all_cpu;  // every round's high phase
  Window timed;
  timed.before = Scrape(wires_[0].get());
  const auto first = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    const uint64_t seed = args_.seed * 1000 + 10 * r;
    for (const PhaseSpec& phase :
         {MakePhase("max", false, 0, kWindow, 0.2 * round_s, seed + 1),
          MakePhase("low", true, spec_.low_rate, 0, 0.4 * round_s, seed + 2),
          MakePhase("high", true, spec_.high_rate, 0, 0.4 * round_s,
                    seed + 3)}) {
      Measured m = Measure(phase, Generator(), topology, false);
      Verify(&m);
      m.spec.name += "." + std::to_string(r);
      PrintPhase(m);
      attempted_ += m.result.attempted;
      failed_ += m.result.failed() + m.mismatches;
      phases_.push_back(std::move(m));
    }
    const Measured* round = &phases_[phases_.size() - 3];
    all_cpu.push_back(round[2].cpu_us_per_query);
    // A round whose generator fell behind is not reported.
    if (round[1].valid() && round[2].valid()) {
      kept.Keep(round[0], round[1], round[2]);
    }
  }
  const auto last = Clock::now();
  timed.after = Scrape(wires_[0].get());
  timed_hit_share_ = ServerHitShare(timed);
  const uint64_t publishes =
      timed.Count("gemrec_ingest_publishes_total", true);
  std::printf("server hit share: warm-up %.3f, timed rounds %.3f; %" PRIu64
              " publishes\n",
              warmup_.hit_share_last, timed_hit_share_, publishes);
  const size_t valid_rounds = kept.qps.size();
  std::printf("%zu of %d rounds kept their schedule\n", valid_rounds,
              kRounds);
  if (valid_rounds == 0) {
    // Latency and throughput are left out, and CPU per query, which
    // counts work done rather than when it was sent, falls back to
    // every round (README.md).
    std::fprintf(stderr,
                 "no round kept its schedule: latency and throughput not "
                 "reported; cpu_us_per_query over all rounds\n");
  }

  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  std::vector<std::pair<std::string, double>> metrics = {
      {"setup_s", Median(setup_s_)},
      {"peak_rss_mb", usage.ru_maxrss / 1024.0},
      {"cpu_us_per_query", Median(valid_rounds > 0 ? kept.cpu : all_cpu)},
  };
  // Throughput and latency are reported beside the metrics: CPU steal
  // on a shared host moves them between runs of the same code by more
  // than any bound that would still catch a regression (README.md).
  std::vector<std::pair<std::string, double>> reported;
  if (valid_rounds > 0) {
    reported = {
        {"max_qps", Percentile(kept.qps, 0.75)},
        {"p50_us.low", Percentile(kept.low_p50, 0.25)},
        {"p99_us.low", Percentile(kept.low_p99, 0.25)},
        {"p50_us.high", Percentile(kept.high_p50, 0.25)},
        {"p99_us.high", Percentile(kept.high_p99, 0.25)},
    };
  }
  extra_.precision(10);
  extra_ << ",\"valid_rounds\":" << valid_rounds << ",\"rounds\":" << kRounds
         << ",\"timed_publishes\":" << publishes;
  for (const auto& [name, value] : reported) {
    std::printf("%-34s %16.4f  %s (reported, not a metric)\n", name.c_str(),
                value, name == "max_qps" ? "1/s" : "us");
    extra_ << ",\"" << name << "\":" << value;
  }

  if (writer_) {
    // Freshness and write latency over the timed window only.
    writer_->Stop();
    std::vector<double> ack_us, lag_ms;
    for (const Writer::Ack& ack : writer_->acks()) {
      if (ack.at < first || ack.at > last) continue;
      ack_us.push_back(ack.ack_us);
      if (auto seen = watch_->FirstNewerThan(ack.epoch_before)) {
        lag_ms.push_back(std::max(0.0, Seconds(*seen - ack.at) * 1e3));
      }
    }
    extra_ << ",\"write_ack_p50_us\":" << Percentile(ack_us, 0.5)
           << ",\"write_ack_p99_us\":" << Percentile(ack_us, 0.99)
           << ",\"write_acks\":" << ack_us.size()
           << ",\"write_failures\":" << writer_->failures()
           << ",\"publish_lag_p50_ms\":" << Percentile(lag_ms, 0.5)
           << ",\"publish_lag_p99_ms\":" << Percentile(lag_ms, 0.99)
           << ",\"publish_lag_samples\":" << lag_ms.size();
    std::printf("writes: %zu acked, %" PRIu64
                " failed; ack p50/p99 %.1f/%.1fus; publish lag p50/p99 "
                "%.1f/%.1fms (n=%zu)\n",
                ack_us.size(), writer_->failures(), Percentile(ack_us, 0.5),
                Percentile(ack_us, 0.99), Percentile(lag_ms, 0.5),
                Percentile(lag_ms, 0.99), lag_ms.size());
    failed_ += writer_->failures();
    attempted_ += writer_->acks().size() + writer_->failures();
  }
  const double fail_ratio =
      static_cast<double>(failed_) / std::max<uint64_t>(1, attempted_);
  extra_ << ",\"fail_ratio\":" << fail_ratio;
  std::printf("fail_ratio %.6f (%" PRIu64 " of %" PRIu64 ")\n", fail_ratio,
              failed_, attempted_);

  const std::map<std::string, std::string> units = {
      {"setup_s", "s"}, {"peak_rss_mb", "MiB"}, {"cpu_us_per_query", "us"}};
  PrintResult(metrics, units);
  return 0;
}

/// Per-query cost of the recommend layer, from direct calls on the
/// snapshots that serve (both slices, summed, when sharded).
struct DirectCosts {
  double partner_b1_us = 0;
  double partner_b16_us = 0;
  double group_us = 0;
  double reciprocal_us = 0;
  double points_examined = 0;
  double sorted_accesses = 0;
  double merge_us = 0;
  uint64_t merge_mismatches = 0;
};

std::vector<serving::QueryRequest> ProbeRequests(const WorkloadSpec& spec,
                                                 RequestKind kind,
                                                 size_t count, uint64_t seed) {
  StreamOptions options = StreamFor(spec);
  options.mix = {0, 0, 0, 0};
  options.mix[static_cast<size_t>(kind)] = 1;
  options.seed = seed;
  RequestStream stream(options);
  std::vector<serving::QueryRequest> out;
  for (size_t i = 0; i < count; ++i) out.push_back(stream.Next());
  return out;
}

double TimeUs(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

DirectCosts MeasureDirect(
    const WorkloadSpec& spec,
    const std::vector<std::shared_ptr<const serving::ModelSnapshot>>& serving,
    const std::vector<std::shared_ptr<const serving::ModelSnapshot>>& slices,
    const serving::ModelSnapshot& reference,
    std::vector<serving::QueryRequest> partner, uint64_t seed) {
  DirectCosts costs;
  // Partner: the phase's recorded misses, padded from the workload's
  // own popularity when the cache left too few.
  if (partner.size() < 64) {
    auto pad = ProbeRequests(spec, RequestKind::kPartner,
                             64 - partner.size(), seed);
    partner.insert(partner.end(), pad.begin(), pad.end());
  }
  if (partner.size() > 512) partner.resize(512);
  const size_t n = partner.size();
  recommend::BatchTaSearch::Workspace ws;
  std::vector<std::vector<float>> queries(n);
  std::vector<recommend::BatchQuery> batch(n);
  std::vector<std::vector<recommend::SearchHit>> hits(n);
  std::vector<recommend::SearchStats> stats(n);
  for (const auto& snap : serving) {
    for (size_t i = 0; i < n; ++i) {
      snap->QueryVector(partner[i].user, &queries[i]);
      batch[i] = {queries[i].data(), partner[i].n, partner[i].user};
    }
    const auto* searcher = snap->batch_searcher();
    GEMREC_CHECK(searcher != nullptr);
    // One untimed pass grows the workspace.
    searcher->SearchBatch(batch.data(), std::min<size_t>(n, 16), hits.data(),
                          nullptr, &ws, nullptr);
    {
      ScopedSpan span("recommend.partner.b1");
      costs.partner_b1_us += TimeUs([&] {
        for (size_t i = 0; i < n; ++i) {
          searcher->SearchBatch(&batch[i], 1, &hits[i], nullptr, &ws,
                                &stats[i]);
        }
      }) / n;
    }
    for (const auto& s : stats) {
      costs.points_examined += static_cast<double>(s.points_examined) / n;
      costs.sorted_accesses += static_cast<double>(s.sorted_accesses) / n;
    }
    {
      ScopedSpan span("recommend.partner.b16");
      costs.partner_b16_us += TimeUs([&] {
        for (size_t i = 0; i < n; i += 16) {
          searcher->SearchBatch(&batch[i], std::min<size_t>(16, n - i),
                                &hits[i], nullptr, &ws, nullptr);
        }
      }) / n;
    }
  }

  const auto groups = ProbeRequests(spec, RequestKind::kGroupSum, 64, seed + 1);
  const auto groups_min =
      ProbeRequests(spec, RequestKind::kGroupMin, 64, seed + 2);
  const auto recips =
      ProbeRequests(spec, RequestKind::kReciprocal, 128, seed + 3);
  recommend::ReciprocalScratch scratch;
  for (const auto& snap : serving) {
    ScopedSpan span("recommend.group");
    costs.group_us += TimeUs([&] {
      for (const auto* set : {&groups, &groups_min}) {
        for (const auto& r : *set) {
          recommend::GroupTopEvents(snap->model(), snap->shard_events(),
                                    r.user, r.group, r.aggregator, r.n);
        }
      }
    }) / (groups.size() + groups_min.size());
  }
  for (const auto& snap : serving) {
    ScopedSpan span("recommend.reciprocal");
    costs.reciprocal_us += TimeUs([&] {
      for (const auto& r : recips) {
        recommend::ReciprocalSearch(snap->model(), snap->searcher(),
                                    snap->space(), r.user, r.n, &scratch);
      }
    }) / recips.size();
  }

  // Merge: per-slice answers for the partner requests, merged with
  // MergeTopK and checked against the unsharded answer.
  const size_t m = std::min<size_t>(n, 256);
  std::vector<std::vector<shard::ShardAnswer>> answers(m);
  for (uint32_t s = 0; s < slices.size(); ++s) {
    std::vector<float> q;
    std::vector<recommend::SearchHit> h;
    recommend::SearchStats st;
    for (size_t i = 0; i < m; ++i) {
      slices[s]->QueryVector(partner[i].user, &q);
      const recommend::BatchQuery bq{q.data(), partner[i].n, partner[i].user};
      slices[s]->batch_searcher()->SearchBatch(&bq, 1, &h, nullptr, &ws, &st);
      shard::ShardAnswer answer;
      answer.shard = s;
      answer.ok = true;
      answer.ta_bound = st.unreturned_bound;
      answer.epoch = 1;
      for (const auto& hit : h) {
        answer.items.push_back({hit.pair.event, hit.pair.partner, hit.score});
      }
      answers[i].push_back(std::move(answer));
    }
  }
  constexpr int kMergeRepeats = 20;
  {
    ScopedSpan span("shard.merge");
    costs.merge_us = TimeUs([&] {
      for (int k = 0; k < kMergeRepeats; ++k) {
        for (size_t i = 0; i < m; ++i) {
          shard::MergeTopK(answers[i], partner[i].n);
        }
      }
    }) / (m * kMergeRepeats);
  }
  // The merged answer must equal the unsharded one.
  for (size_t i = 0; i < m; ++i) {
    const auto merged = shard::MergeTopK(answers[i], partner[i].n);
    if (!CompareItems(merged.items, OracleAnswer(reference, partner[i]))
             .empty()) {
      ++costs.merge_mismatches;
    }
  }
  return costs;
}

int Bench::RunTraced() {
  // Three interleaved rounds of the high phase: untraced over the wire
  // (the reference for tracing overhead and for the wire-minus-replay
  // split), traced over the wire with the registry scraped around it,
  // and the same traffic replayed in-process through SubmitAsync (the
  // serve stack without the front-end socket).
  constexpr int kRounds = 3;
  const double phase_s = args_.seconds / (3 * kRounds);
  const auto topology = WireTopology();
  std::vector<std::unique_ptr<InprocChannel>> inproc;
  std::vector<std::vector<Channel*>> inproc_topology(gen_threads_);
  for (size_t t = 0; t < gen_threads_; ++t) {
    for (size_t c = 0; c < conns_per_thread_[t]; ++c) {
      inproc.push_back(std::make_unique<InprocChannel>(stack_->backend()));
      inproc_topology[t].push_back(inproc.back().get());
    }
  }
  std::vector<Measured> plain, traced, replay;
  for (int r = 0; r < kRounds; ++r) {
    // Each phase draws its own stream from the same distribution: a
    // literal replay would be answered from the cache the previous
    // phase just filled.
    uint64_t seed = args_.seed * 1000 + 10 * r;
    const auto run = [&](const char* name, const GeneratorOptions& options,
                         const std::vector<std::vector<Channel*>>& channels,
                         bool trace, std::vector<Measured>* into) {
      const PhaseSpec high =
          MakePhase("high", true, spec_.high_rate, 0, phase_s, ++seed);
      Tracer::Enable(trace);
      Measured m = Measure(high, options, channels, trace);
      Tracer::Enable(false);
      Verify(&m);
      m.spec.name = std::string(name) + "." + std::to_string(r);
      PrintPhase(m);
      attempted_ += m.result.attempted;
      failed_ += m.result.failed() + m.mismatches;
      into->push_back(std::move(m));
    };
    run("plain", Generator(), topology, false, &plain);
    run("traced", Generator(2048), topology, true, &traced);
    run("inproc", Generator(), inproc_topology, false, &replay);
  }
  const auto median = [](const std::vector<Measured>& ms,
                         const std::function<double(const Measured&)>& f) {
    std::vector<double> values;
    for (const Measured& m : ms) values.push_back(f(m));
    return Median(values);
  };
  const auto p50 = [](const Measured& m) { return m.p(0.5); };
  const auto cpu = [](const Measured& m) { return m.cpu_us_per_query; };
  const double plain_p50 = median(plain, p50);
  const double plain_cpu = median(plain, cpu);
  const double traced_p50 = median(traced, p50);
  const double traced_cpu = median(traced, cpu);
  const double replay_p50 = median(replay, p50);
  const double replay_cpu = median(replay, cpu);
  // Registry totals over the traced phases.
  const auto hist = [&](const std::string& name, bool labelled) {
    obs::HistogramData sum;
    for (const Measured& m : traced) {
      Accumulate(&sum, m.window.Hist(name, labelled));
    }
    return sum;
  };
  const auto count = [&](const std::string& name, bool labelled) {
    uint64_t sum = 0;
    for (const Measured& m : traced) sum += m.window.Count(name, labelled);
    return static_cast<double>(sum);
  };
  std::vector<serving::QueryRequest> traced_misses;
  std::array<uint64_t, kNumRequestKinds> miss_kinds{};
  uint64_t traced_ok = 0;
  for (const Measured& m : traced) {
    traced_misses.insert(traced_misses.end(), m.result.misses.begin(),
                         m.result.misses.end());
    for (size_t k = 0; k < kNumRequestKinds; ++k) {
      miss_kinds[k] += m.result.miss_kinds[k];
    }
    traced_ok += m.result.ok;
  }

  // 4. Direct calls into the recommend, shard and serving layers. The
  //    slices are cut from the unsharded snapshot that answers now (the
  //    live one, or the sharded stack's reference instance), so their
  //    merges must reproduce its answers exactly.
  Tracer::Enable(true);
  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = kTopKEventsPerPartner;
  const auto reference = stack_->service()->CurrentSnapshot();
  std::vector<std::shared_ptr<const serving::ModelSnapshot>> slices;
  for (uint32_t i = 0; i < 2; ++i) {
    serving::SnapshotOptions o = snapshot_options;
    o.shard = {i, 2};
    slices.push_back(std::make_shared<serving::ModelSnapshot>(
        reference->store(), reference->events(), reference->num_users(), o));
  }
  const std::vector<std::shared_ptr<const serving::ModelSnapshot>> live =
      stack_->sharded() ? slices
                        : std::vector<std::shared_ptr<
                              const serving::ModelSnapshot>>{reference};
  std::vector<serving::QueryRequest> partner_misses;
  for (const auto& r : traced_misses) {
    if (r.kind == recommend::QueryKind::kPartner) partner_misses.push_back(r);
  }
  const DirectCosts direct = MeasureDirect(spec_, live, slices, *reference,
                                           partner_misses, args_.seed + 77);
  mismatches_ += direct.merge_mismatches;
  failed_ += direct.merge_mismatches;

  std::vector<double> build_ms;
  for (int i = 0; i < 3; ++i) {
    serving::SnapshotBuilder builder(reference->store(), reference->events(),
                                     reference->num_users(),
                                     snapshot_options);
    ScopedSpan span("serving.snapshot_build");
    build_ms.push_back(TimeUs([&] { builder.Build(); }) / 1e3);
  }

  std::vector<double> sync_us;
  {
    const std::string path = scratch_ + "/probe_journal";
    auto journal = serving::IngestJournal::Open(path);
    GEMREC_CHECK(journal.ok()) << journal.status().ToString();
    serving::IngestRecord record;
    record.kind = serving::IngestKind::kAttendance;
    for (int i = 0; i < 64; ++i) {
      record.seq = static_cast<uint64_t>(i + 1);
      record.user = static_cast<ebsn::UserId>(i);
      record.event = reference->events()[static_cast<size_t>(i) %
                                         reference->events().size()];
      ScopedSpan span("serving.journal_append");
      sync_us.push_back(TimeUs([&] {
        GEMREC_CHECK(journal->AppendOne(record).ok());
      }));
    }
  }
  Tracer::Enable(false);

  // 5. Per-layer numbers.
  const auto spans = Tracer::Collect();
  std::vector<double> send_us, recv_us;
  for (const Span& span : spans) {
    const std::string name = span.name;
    if (name == "client.send") send_us.push_back(span.duration_us());
    if (name == "client.recv") recv_us.push_back(span.duration_us());
  }
  const double queries = count("gemrec_service_queries_total", true);
  const double batches = count("gemrec_service_batches_total", true);
  const double hits = count("gemrec_service_cache_hits_total", true);
  const double batch_mean = batches == 0 ? 0.0 : queries / batches;
  timed_hit_share_ = queries == 0 ? 0.0 : hits / queries;

  // CPU budget per completed query of the traced phases: recommend =
  // direct-call cost of the queries the caches did not answer; serving
  // = the in-process replay minus that; net = the wire minus the
  // replay. The client sees which replies were cache hits, except
  // behind a coordinator, where only the shards' registries know.
  const double partner_us =
      batch_mean < 8.5 ? direct.partner_b1_us : direct.partner_b16_us;
  const std::array<double, kNumRequestKinds> kind_us = {
      partner_us, direct.group_us, direct.group_us, direct.reciprocal_us};
  double recommend_cpu = 0;
  for (size_t k = 0; k < kNumRequestKinds; ++k) {
    if (stack_->sharded()) {
      double attempted = 0;
      for (const Measured& m : traced) attempted += m.result.kinds[k];
      recommend_cpu +=
          attempted * (1 - hits / std::max(1.0, queries)) * kind_us[k];
    } else {
      recommend_cpu += miss_kinds[k] * kind_us[k];
    }
  }
  recommend_cpu /= std::max<uint64_t>(1, traced_ok);
  const double serving_cpu = replay_cpu - recommend_cpu;
  const double net_cpu = plain_cpu - replay_cpu;
  std::printf(
      "\nCPU budget per query (high phase %.0f/s): wire %.1fus = recommend "
      "%.1fus + serving %.1fus + net %.1fus  (cpu_us_per_query %.1fus; "
      "recommend share %.3f)\n",
      spec_.high_rate, plain_cpu, recommend_cpu, serving_cpu, net_cpu,
      plain_cpu, recommend_cpu / plain_cpu);
  std::printf("tracing overhead: p50 %+.1fus, cpu/query %+.1fus\n",
              traced_p50 - plain_p50, traced_cpu - plain_cpu);

  // Workload-specific layer numbers, reported beside the per-layer set.
  if (stack_->sharded()) {
    double slowest = 0;
    for (const obs::MetricValue& m : traced[0].window.after.metrics) {
      if (m.name.rfind("gemrec_shard_rpc_us{", 0) != 0) continue;
      slowest = std::max(slowest, hist(m.name, false).Percentile(0.5));
    }
    const double coordinator_p50 =
        hist("gemrec_net_round_trip_us", false).Percentile(0.5);
    extra_.precision(10);
    extra_ << ",\"shard.rpc_p50_us\":" << slowest
           << ",\"shard.fanout_overhead_p50_us\":"
           << coordinator_p50 - slowest;
    std::printf("shard rpc p50 (slowest shard) %.1fus, fan-out overhead "
                "p50 %.1fus\n",
                slowest, coordinator_p50 - slowest);
  }

  std::vector<std::pair<std::string, double>> metrics = {
      {"client.late_p99_us",
       median(traced, [](const Measured& m) { return m.late(0.99); })},
      {"client.send_us", Median(send_us)},
      {"client.recv_us", Median(recv_us)},
      {"net.server_rtt_p50_us",
       hist("gemrec_net_round_trip_us", false).Percentile(0.5)},
      {"net.overhead_p50_us", plain_p50 - replay_p50},
      {"net.cpu_us_per_query", net_cpu},
      {"net.sheds", count("gemrec_net_overload_sheds_total", false)},
      {"net.protocol_errors",
       count("gemrec_net_protocol_errors_total", false)},
      {"serving.cache_hit_ratio", timed_hit_share_},
      {"serving.queue_wait_p50_us",
       hist("gemrec_service_queue_wait_us", true).Percentile(0.5)},
      {"serving.queue_wait_p99_us",
       hist("gemrec_service_queue_wait_us", true).Percentile(0.99)},
      {"serving.batch_mean", batch_mean},
      {"serving.inproc_p50_us", replay_p50},
      {"serving.cpu_us_per_query", replay_cpu},
      {"serving.journal_sync_us", Median(sync_us)},
      {"serving.snapshot_build_ms", Median(build_ms)},
      {"serving.publishes", count("gemrec_ingest_publishes_total", true)},
      {"serving.ingest_sheds", count("gemrec_ingest_shed_total", true)},
      {"recommend.partner_us.b1", direct.partner_b1_us},
      {"recommend.partner_us.b16", direct.partner_b16_us},
      {"recommend.group_us", direct.group_us},
      {"recommend.reciprocal_us", direct.reciprocal_us},
      {"recommend.points_examined", direct.points_examined},
      {"recommend.sorted_accesses", direct.sorted_accesses},
      // Means, not medians: re-rank takes about a microsecond, and the
      // registry's power-of-two buckets would give the same median on
      // every run.
      {"recommend.quantize_scan_mean_us",
       hist("gemrec_service_quantize_scan_us", true).Mean()},
      {"recommend.rerank_mean_us",
       hist("gemrec_service_rerank_us", true).Mean()},
      {"shard.merge_us", direct.merge_us},
      {"shard.partial_results",
       count("gemrec_shard_partial_results_total", false)},
      {"shard.deadline_misses",
       count("gemrec_shard_deadline_misses_total", false)},
      {"embedding.train_steps_per_s", kTrainSteps / model_->train_s},
      {"ebsn.generate_s", model_->generate_s},
      {"graph.build_s", model_->graphs_s},
      {"budget.recommend_cpu_us", recommend_cpu},
      {"budget.serving_cpu_us", serving_cpu},
      {"budget.net_cpu_us", net_cpu},
      {"budget.recommend_share", recommend_cpu / plain_cpu},
      {"trace.overhead_p50_us", traced_p50 - plain_p50},
      {"trace.overhead_cpu_us", traced_cpu - plain_cpu},
  };
  std::map<std::string, std::string> units;
  for (const auto& [name, value] : metrics) {
    std::string unit = "us";
    if (name.find("_ms") != std::string::npos) unit = "ms";
    if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0) {
      unit = "s";
    }
    if (name == "embedding.train_steps_per_s") unit = "1/s";
    if (name == "serving.cache_hit_ratio" || name == "serving.batch_mean" ||
        name == "budget.recommend_share") {
      unit = "1";
    }
    if (name == "net.sheds" || name == "net.protocol_errors" ||
        name == "serving.publishes" || name == "serving.ingest_sheds" ||
        name == "recommend.points_examined" ||
        name == "recommend.sorted_accesses" ||
        name == "shard.partial_results" || name == "shard.deadline_misses") {
      unit = "count";
    }
    units[name] = unit;
  }
  for (auto* series : {&plain, &traced, &replay}) {
    for (Measured& m : *series) phases_.push_back(std::move(m));
  }
  const std::string trace_path = scratch_ + "/../trace-" + spec_.name +
                                 "-" + std::to_string(args_.seed) + ".jsonl";
  if (Tracer::WriteJsonLines(trace_path)) {
    std::printf("wrote %zu spans to %s\n", spans.size(), trace_path.c_str());
  }
  PrintResult(metrics, units);
  return 0;
}

}  // namespace
}  // namespace gemrec::perfbench

int main(int argc, char** argv) {
  using namespace gemrec::perfbench;
  gemrec::SetLogLevel(gemrec::LogLevel::kWarning);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scratch-dir DIR]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Bench bench(args, *spec);
  return bench.Run();
}
