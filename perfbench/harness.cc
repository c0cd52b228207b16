#include "harness.h"

#include <poll.h>
#include <pthread.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "ebsn/tfidf.h"
#include "recommend/brute_force.h"
#include "recommend/query_kinds.h"
#include "trace.h"

namespace gemrec::perfbench {
namespace {

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

uint64_t MixSeed(uint64_t a, uint64_t b) {
  return SplitMix64(a * 0x9e3779b97f4a7c15ULL + b).Next();
}

}  // namespace

// Rates are requests/s, frozen once from max_qps on a 4-vCPU host;
// see README.md for how they were picked. The kind mix and the write
// rate are chosen, not measured: README.md lists the property each
// must keep.
const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"partner_zipf",
       "Zipf-popular partner queries, most answered from the result "
       "cache: loads the net front end and the serving cache",
       1.0, {1, 0, 0, 0}, false, 0.0, 2000, 4000},
      {"mixed_longtail",
       "flat-popularity partner/group/reciprocal mix that misses the "
       "cache: loads recommend retrieval and serving batching",
       0.0, {0.55, 0.15, 0.15, 0.15}, false, 0.0, 1400, 2800},
      {"ingest_mixed",
       "partner_zipf reads beside paced journaled writes: loads the "
       "serving write path, publishes and cache invalidation",
       1.0, {1, 0, 0, 0}, false, 50.0, 1500, 3000},
      {"sharded_longtail",
       "long-tail partner queries through a coordinator over two "
       "shards: loads shard fan-out and merge",
       0.0, {1, 0, 0, 0}, true, 0.0, 1000, 2000},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

bool RaiseThreadPriority() {
  return ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()),
                       kGeneratorNice) == 0;
}

double ThreadCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

uint64_t Model::Fingerprint() const {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (graph::NodeType type :
       {graph::NodeType::kUser, graph::NodeType::kEvent}) {
    const Matrix& matrix = store().MatrixOf(type);
    for (size_t r = 0; r < matrix.rows(); ++r) {
      const float* row = matrix.Row(r);
      for (size_t c = 0; c < matrix.cols(); ++c) {
        uint32_t bits;
        std::memcpy(&bits, &row[c], sizeof(bits));
        hash = (hash ^ bits) * 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

std::unique_ptr<Model> BuildModel(uint64_t seed) {
  auto model = std::make_unique<Model>();
  auto t0 = Clock::now();
  {
    ScopedSpan span("ebsn.generate");
    ebsn::SyntheticConfig config;
    config.num_users = kUsers;
    config.num_events = kEvents;
    config.num_venues = kEvents / 5;
    // Sparser than the generator's defaults: generation time grows
    // with total attendance, and set-up runs three times per run.
    config.mean_events_per_user = 8.0;
    config.mean_friends_per_user = 8.0;
    config.seed = seed;
    model->data = ebsn::GenerateSynthetic(config);
  }
  auto t1 = Clock::now();
  {
    ScopedSpan span("graph.build");
    model->split =
        std::make_unique<ebsn::ChronologicalSplit>(model->data.dataset);
    auto graphs = graph::BuildEbsnGraphs(model->data.dataset,
                                         *model->split, {});
    GEMREC_CHECK(graphs.ok()) << graphs.status().ToString();
    model->graphs =
        std::make_unique<graph::EbsnGraphs>(std::move(graphs).value());
  }
  auto t2 = Clock::now();
  {
    ScopedSpan span("embedding.train");
    auto options = embedding::TrainerOptions::GemA();
    options.dim = kDim;
    options.num_samples = kTrainSteps;
    options.seed = MixSeed(seed, 7);
    // num_threads stays 1: single-threaded SGD is what makes the
    // embeddings, and so every answer, repeat exactly for one seed.
    model->trainer = std::make_unique<embedding::JointTrainer>(
        model->graphs.get(), options);
    model->trainer->TrainChunk(kTrainSteps);
  }
  auto t3 = Clock::now();
  model->generate_s = Seconds(t1 - t0);
  model->graphs_s = Seconds(t2 - t1);
  model->train_s = Seconds(t3 - t2);
  return model;
}

Result<std::unique_ptr<Stack>> Stack::Start(const Model& model,
                                            const WorkloadSpec& spec,
                                            uint32_t reactors,
                                            const std::string& scratch_dir) {
  std::unique_ptr<Stack> stack(new Stack);
  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = kTopKEventsPerPartner;
  const serving::ServiceOptions service_options;
  net::ServerOptions server_options;
  server_options.num_reactors = reactors;
  stack->service_options_ = service_options;
  stack->server_options_ = server_options;
  const uint32_t num_users = model.data.dataset.num_users();
  const auto& pool = model.split->test_events();

  stack->builder_ = std::make_unique<serving::SnapshotBuilder>(
      model.store(), pool, num_users, snapshot_options);

  if (spec.sharded) {
    shard::ShardGroupOptions group_options;
    group_options.num_shards = 2;
    group_options.service = service_options;
    group_options.snapshot = snapshot_options;
    group_options.server = server_options;
    const auto t0 = Clock::now();
    {
      ScopedSpan span("serving.snapshot_build");
      stack->shards_ = std::make_unique<shard::ShardGroup>(
          model.store(), pool, num_users, group_options);
      GEMREC_RETURN_IF_ERROR(stack->shards_->Start());
    }
    stack->snapshot_build_s_ = Seconds(Clock::now() - t0);
    stack->coordinator_ = std::make_unique<shard::CoordinatorBackend>(
        stack->shards_->endpoints());
    GEMREC_RETURN_IF_ERROR(stack->coordinator_->Start());
    stack->backend_ = stack->coordinator_.get();
    server_options = net::ServerOptions{};
    // The unsharded reference instance: one worker, no cache, queried
    // only after each phase.
    serving::ServiceOptions reference_options;
    reference_options.num_workers = 1;
    reference_options.cache_capacity = 0;
    stack->service_ =
        std::make_unique<serving::RecommendationService>(reference_options);
    stack->service_->Publish(stack->builder_->Build());
  } else {
    stack->service_ =
        std::make_unique<serving::RecommendationService>(service_options);
    stack->backend_ = stack->service_.get();
    const auto t0 = Clock::now();
    if (spec.write_rate > 0) {
      // `gemrec serve --ingest-dir` defaults; Start builds and
      // publishes the first snapshot.
      serving::IngestionQueueOptions ingest_options;
      ingest_options.journal_path = scratch_dir + "/journal";
      ingest_options.checkpoint_base = scratch_dir + "/checkpoint";
      ingest_options.checkpoint_every = 4096;
      stack->ingest_ = std::make_unique<serving::IngestionQueue>(
          stack->service_.get(), stack->builder_.get(), ingest_options);
      ScopedSpan span("serving.snapshot_build");
      GEMREC_RETURN_IF_ERROR(stack->ingest_->Start());
    } else {
      ScopedSpan span("serving.snapshot_build");
      stack->service_->Publish(stack->builder_->Build());
    }
    stack->snapshot_build_s_ = Seconds(Clock::now() - t0);
  }

  stack->front_reactors_ = server_options.num_reactors;
  stack->front_ = std::make_unique<net::NetServer>(
      stack->backend_, server_options, stack->ingest_.get());
  GEMREC_RETURN_IF_ERROR(stack->front_->Start());
  return stack;
}

Stack::~Stack() {
  if (front_) front_->Stop();
  if (coordinator_) coordinator_->Stop();
  if (shards_) shards_->Stop();
  if (ingest_) ingest_->Shutdown();
  if (service_) service_->Shutdown();
  front_.reset();
  coordinator_.reset();
  shards_.reset();
  ingest_.reset();
  service_.reset();
}

Result<std::unique_ptr<WireChannel>> WireChannel::Connect(uint16_t port) {
  GEMREC_ASSIGN_OR_RETURN(auto client,
                          net::Client::Connect("127.0.0.1", port, {}));
  return std::unique_ptr<WireChannel>(new WireChannel(std::move(client)));
}

bool WireChannel::Send(const serving::QueryRequest& request, uint64_t id) {
  ScopedSpan span("client.send", id);
  return client_->SendTagged(request, id).ok();
}

bool WireChannel::Drain(std::vector<Completion>* out) {
  while (true) {
    const int64_t start_ns = Tracer::enabled() ? Tracer::NowNs() : 0;
    auto reply = client_->ReceiveAny(std::chrono::milliseconds(0));
    if (!reply.ok()) {
      return reply.status().code() == StatusCode::kTimeout;
    }
    if (reply->is_stats) continue;
    if (start_ns != 0) {
      Tracer::Record("client.recv", start_ns, Tracer::NowNs(),
                     reply->frame_id);
    }
    Completion completion;
    completion.id = reply->frame_id;
    completion.at = Clock::now();
    completion.answered = reply->outcome.ok;
    if (completion.answered) {
      completion.response = std::move(reply->outcome.response);
    }
    out->push_back(std::move(completion));
  }
}

InprocChannel::InprocChannel(serving::QueryBackend* backend)
    : backend_(backend), state_(std::make_shared<State>()) {
  state_->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  GEMREC_CHECK(state_->event_fd >= 0) << std::strerror(errno);
}

InprocChannel::~InprocChannel() = default;

InprocChannel::State::~State() {
  if (event_fd >= 0) ::close(event_fd);
}

bool InprocChannel::Send(const serving::QueryRequest& request, uint64_t id) {
  ScopedSpan span("inproc.submit", id);
  // The callback holds the state, so a completion arriving after the
  // channel is gone still lands in live memory.
  backend_->SubmitAsync(
      request, [state = state_, id](serving::QueryResponse response) {
        Completion completion;
        completion.id = id;
        completion.answered = true;
        completion.response = std::move(response);
        completion.at = Clock::now();
        {
          std::lock_guard<std::mutex> lock(state->mu);
          state->done.push_back(std::move(completion));
        }
        const uint64_t one = 1;
        [[maybe_unused]] const ssize_t w =
            ::write(state->event_fd, &one, sizeof(one));
      });
  return true;
}

bool InprocChannel::Drain(std::vector<Completion>* out) {
  uint64_t count = 0;
  [[maybe_unused]] const ssize_t r =
      ::read(state_->event_fd, &count, sizeof(count));
  std::lock_guard<std::mutex> lock(state_->mu);
  for (Completion& completion : state_->done) {
    out->push_back(std::move(completion));
  }
  state_->done.clear();
  return true;
}

std::shared_ptr<const serving::ModelSnapshot> SnapshotTap::Get(
    uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& held : held_) {
    if (held->epoch() == epoch) return held;
  }
  if (held_.size() >= kMaxHeld) return nullptr;
  auto current = service_->CurrentSnapshot();
  if (current == nullptr || current->epoch() != epoch) return nullptr;
  held_.push_back(current);
  return current;
}

void SnapshotTap::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  held_.clear();
}

void EpochWatch::Observe(uint64_t epoch, Clock::time_point at) {
  if (epoch <= max_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch <= max_.load(std::memory_order_relaxed)) return;
  first_seen_.emplace_back(epoch, at);
  max_.store(epoch, std::memory_order_release);
}

std::optional<Clock::time_point> EpochWatch::FirstNewerThan(
    uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [seen, at] : first_seen_) {
    if (seen > epoch) return at;
  }
  return std::nullopt;
}

namespace {

struct Slot {
  Clock::time_point intended;
  uint32_t conn = 0;
  RequestKind kind = RequestKind::kPartner;
  bool sample = false;
};

void GeneratorThread(size_t t, size_t num_threads, const PhaseSpec& phase,
                     const GeneratorOptions& options,
                     const std::vector<Channel*>& conns,
                     Clock::time_point start, PhaseResult* out) {
  out->raised_priority = RaiseThreadPriority();
  const double cpu0 = ThreadCpuSeconds();
  StreamOptions stream_options = options.stream;
  stream_options.seed = MixSeed(phase.seed, t);
  RequestStream stream(stream_options);
  std::optional<PoissonArrivals> arrivals;
  if (phase.open_loop) {
    arrivals.emplace(phase.rate / num_threads, MixSeed(phase.seed, 1000 + t));
  }
  const auto gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(arrivals->NextGapSeconds()));
  };
  const size_t num_conns = conns.size();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(phase.seconds));

  std::vector<pollfd> fds(num_conns);
  for (size_t c = 0; c < num_conns; ++c) {
    fds[c] = pollfd{conns[c]->wait_fd(), POLLIN, 0};
  }
  std::vector<uint32_t> inflight(num_conns, 0);
  uint64_t total_inflight = 0;
  std::vector<Slot> slots;
  std::vector<serving::QueryRequest> requests;
  const size_t expected =
      phase.open_loop ? static_cast<size_t>(phase.rate / num_threads *
                                            phase.seconds * 1.2) + 64
                      : 1 << 16;
  slots.reserve(expected);
  requests.reserve(expected);
  out->late_us.reserve(phase.open_loop ? expected : 0);
  out->latency_us.reserve(expected);
  out->done_s.reserve(expected);

  Clock::time_point next_due = phase.open_loop ? start + gap() : start;
  size_t round_robin = 0;
  bool broken = false;
  Clock::time_point drain_deadline = Clock::time_point::max();
  std::vector<Completion> completions;

  const auto send = [&](size_t c, Clock::time_point intended,
                        Clock::time_point now) {
    RequestKind kind;
    serving::QueryRequest request = stream.Next(&kind);
    const uint64_t id = slots.size();
    Slot slot;
    slot.intended = intended;
    slot.conn = static_cast<uint32_t>(c);
    slot.kind = kind;
    slot.sample = id % kSampleEvery == 0 &&
                  id / kSampleEvery < kMaxSamplesPerThread;
    slots.push_back(slot);
    ++out->attempted;
    ++out->kinds[static_cast<size_t>(kind)];
    if (!conns[c]->Send(request, id)) {
      ++out->transport_errors;
      broken = true;
      requests.emplace_back();
      return;
    }
    if (phase.open_loop) out->late_us.push_back(Micros(now - intended));
    requests.push_back(std::move(request));
    ++inflight[c];
    ++total_inflight;
  };

  const auto handle = [&](Completion& completion) {
    if (completion.id >= slots.size()) {
      ++out->error_replies;
      return;
    }
    const Slot& slot = slots[completion.id];
    --inflight[slot.conn];
    --total_inflight;
    const serving::QueryResponse& response = completion.response;
    if (!completion.answered || response.rejected || response.bad_request ||
        response.overloaded || response.partial) {
      ++out->error_replies;
      return;
    }
    ++out->ok;
    out->latency_us.push_back(Micros(completion.at - slot.intended));
    out->done_s.push_back(Seconds(completion.at - start));
    if (response.cache_hit) {
      ++out->cache_hits;
    } else {
      ++out->miss_kinds[static_cast<size_t>(slot.kind)];
      if (out->misses.size() < options.max_misses_per_thread) {
        out->misses.push_back(requests[completion.id]);
      }
    }
    if (options.watch != nullptr) {
      options.watch->Observe(response.epoch, completion.at);
    }
    if (slot.sample) {
      OracleSample sample;
      if (options.tap != nullptr) {
        sample.snapshot = options.tap->Get(response.epoch);
        if (sample.snapshot == nullptr) return;
      }
      sample.request = requests[completion.id];
      sample.response = std::move(completion.response);
      out->samples.push_back(std::move(sample));
    }
  };

  std::this_thread::sleep_until(start);
  while (true) {
    Clock::time_point now = Clock::now();
    if (!broken) {
      if (phase.open_loop) {
        while (!broken && next_due <= now && next_due < end) {
          send(round_robin, next_due, now);
          round_robin = (round_robin + 1) % num_conns;
          next_due += gap();
        }
      } else if (now < end) {
        for (size_t c = 0; c < num_conns && !broken; ++c) {
          while (!broken && inflight[c] < phase.window) {
            send(c, now, now);
          }
        }
      }
    }
    const bool sending_over =
        broken || (phase.open_loop ? next_due >= end : now >= end);
    if (sending_over) {
      if (drain_deadline == Clock::time_point::max()) {
        drain_deadline = std::max(now, end) + kDrainGrace;
      }
      if (total_inflight == 0) break;
      if (now >= drain_deadline) {
        out->unanswered += total_inflight;
        break;
      }
    }
    const Clock::time_point wake =
        sending_over ? drain_deadline
                     : (phase.open_loop ? std::min(next_due, end) : end);
    const auto wait = std::max(Clock::duration::zero(), wake - now);
    const auto wait_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (size_t c = 0; c < num_conns; ++c) {
      if (fds[c].revents == 0) continue;
      completions.clear();
      const bool alive = conns[c]->Drain(&completions);
      for (Completion& completion : completions) handle(completion);
      if (!alive) {
        out->transport_errors += inflight[c];
        total_inflight -= inflight[c];
        inflight[c] = 0;
        fds[c].fd = -1;
        broken = true;
      }
    }
  }
  out->generator_cpu_s = ThreadCpuSeconds() - cpu0;
}

}  // namespace

PhaseResult RunPhase(const PhaseSpec& phase, const GeneratorOptions& options,
                     const std::vector<std::vector<Channel*>>& channels) {
  const size_t num_threads = channels.size();
  std::vector<PhaseResult> parts(num_threads);
  // A common start a little ahead, so every thread's schedule begins
  // at the same instant.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back(GeneratorThread, t, num_threads, std::cref(phase),
                         std::cref(options), std::cref(channels[t]), start,
                         &parts[t]);
  }
  for (std::thread& thread : threads) thread.join();

  PhaseResult result;
  for (PhaseResult& part : parts) {
    result.latency_us.insert(result.latency_us.end(),
                             part.latency_us.begin(), part.latency_us.end());
    result.done_s.insert(result.done_s.end(), part.done_s.begin(),
                         part.done_s.end());
    result.late_us.insert(result.late_us.end(), part.late_us.begin(),
                          part.late_us.end());
    result.attempted += part.attempted;
    result.ok += part.ok;
    result.error_replies += part.error_replies;
    result.transport_errors += part.transport_errors;
    result.unanswered += part.unanswered;
    result.cache_hits += part.cache_hits;
    for (size_t k = 0; k < kNumRequestKinds; ++k) {
      result.kinds[k] += part.kinds[k];
      result.miss_kinds[k] += part.miss_kinds[k];
    }
    result.generator_cpu_s += part.generator_cpu_s;
    result.raised_priority &= part.raised_priority;
    for (OracleSample& sample : part.samples) {
      result.samples.push_back(std::move(sample));
    }
    for (serving::QueryRequest& miss : part.misses) {
      result.misses.push_back(std::move(miss));
    }
  }
  return result;
}

Writer::Writer(uint16_t port, const Model& model, double rate,
               uint64_t seed, EpochWatch* watch)
    : port_(port), model_(model), rate_(rate), seed_(seed), watch_(watch) {}

Writer::~Writer() { Stop(); }

Status Writer::Start() {
  GEMREC_ASSIGN_OR_RETURN(client_,
                          net::Client::Connect("127.0.0.1", port_, {}));
  thread_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

void Writer::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

double Writer::cpu_s() {
  if (!thread_.joinable()) return 0;
  clockid_t clock;
  timespec ts{};
  if (::pthread_getcpuclockid(thread_.native_handle(), &clock) != 0 ||
      ::clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

namespace {
/// Share of the writes that publish a cold event; the rest attend.
constexpr double kNewEventShare = 0.1;
}  // namespace

void Writer::Loop() {
  RaiseThreadPriority();
  const ebsn::Dataset& dataset = model_.data.dataset;
  // Cold events come from the validation split: outside the served
  // pool, with TF-IDF signals computed the way `gemrec ingest` does.
  std::vector<std::vector<ebsn::WordId>> docs(dataset.num_events());
  for (uint32_t x = 0; x < dataset.num_events(); ++x) {
    docs[x] = dataset.event(x).words;
  }
  const auto tfidf = ebsn::ComputeTfIdf(docs, dataset.vocab_size());
  const auto& cold = model_.split->validation_events();
  const auto& pool = model_.split->test_events();
  GEMREC_CHECK(!cold.empty() && !pool.empty());

  Rng rng(seed_);
  PoissonArrivals arrivals(rate_, MixSeed(seed_, 1));
  auto next = Clock::now();
  while (!stop_.load()) {
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(arrivals.NextGapSeconds()));
    while (!stop_.load() && Clock::now() < next) {
      std::this_thread::sleep_until(
          std::min(next, Clock::now() + std::chrono::milliseconds(20)));
    }
    if (stop_.load()) break;
    Result<net::IngestOutcome> outcome = Status::Internal("unset");
    const auto sent = Clock::now();
    if (rng.UniformDouble() < kNewEventShare) {
      const ebsn::EventId event = cold[rng.UniformInt(cold.size())];
      embedding::NewEventSignals signals;
      for (const auto& ww : tfidf[event]) {
        signals.words.push_back({ww.word, static_cast<float>(ww.weight)});
      }
      signals.region = model_.graphs->event_region[event];
      signals.start_time = dataset.event(event).start_time;
      outcome = client_->PublishNewEvent(event, signals);
    } else {
      const auto user =
          static_cast<ebsn::UserId>(rng.UniformInt(dataset.num_users()));
      outcome = client_->Attend(user, pool[rng.UniformInt(pool.size())]);
    }
    const auto acked = Clock::now();
    if (!outcome.ok() || !outcome->ok) {
      ++failures_;
      continue;
    }
    acks_.push_back({acked, Micros(acked - sent), watch_->max_epoch()});
  }
}

std::string CompareItems(const std::vector<recommend::Recommendation>& got,
                         const std::vector<recommend::Recommendation>& want) {
  if (got.size() != want.size()) {
    return "size " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  }
  const size_t n = want.size();
  for (size_t i = 0; i < n; ++i) {
    uint32_t a, b;
    std::memcpy(&a, &got[i].score, sizeof(a));
    std::memcpy(&b, &want[i].score, sizeof(b));
    if (a != b) {
      return "rank " + std::to_string(i) + " score " +
             std::to_string(got[i].score) + " != " +
             std::to_string(want[i].score);
    }
  }
  const auto key = [](const recommend::Recommendation& r) {
    return std::pair<uint32_t, uint32_t>(r.event, r.partner);
  };
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && want[j].score == want[i].score) ++j;
    // A tie run reaching the cut-off may legitimately hold other tied
    // pairs than the oracle's; scores were already checked.
    if (j < n || j - i == 1) {
      std::vector<std::pair<uint32_t, uint32_t>> a, b;
      for (size_t k = i; k < j; ++k) {
        a.push_back(key(got[k]));
        b.push_back(key(want[k]));
      }
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a != b) {
        return "rank " + std::to_string(i) + " pair (" +
               std::to_string(got[i].event) + "," +
               std::to_string(got[i].partner) + ") != (" +
               std::to_string(want[i].event) + "," +
               std::to_string(want[i].partner) + ")";
      }
    }
    i = j;
  }
  return "";
}

std::vector<recommend::Recommendation> OracleAnswer(
    const serving::ModelSnapshot& snapshot,
    const serving::QueryRequest& request) {
  switch (request.kind) {
    case recommend::QueryKind::kGroup:
      return recommend::GroupTopEvents(snapshot.model(),
                                       snapshot.shard_events(), request.user,
                                       request.group, request.aggregator,
                                       request.n);
    case recommend::QueryKind::kReciprocal:
      return recommend::ReciprocalTopPairs(snapshot.model(), snapshot.space(),
                                           request.user, request.n);
    case recommend::QueryKind::kPartner:
      break;
  }
  std::vector<float> query;
  snapshot.QueryVector(request.user, &query);
  const recommend::BruteForceSearch oracle(&snapshot.space());
  std::vector<recommend::Recommendation> items;
  for (const recommend::SearchHit& hit :
       oracle.Search(query, request.n, request.user)) {
    items.push_back({hit.pair.event, hit.pair.partner, hit.score});
  }
  return items;
}

}  // namespace gemrec::perfbench
