#ifndef GEMREC_PERFBENCH_HARNESS_H_
#define GEMREC_PERFBENCH_HARNESS_H_

// The benchmark's serve stack, load generator and oracles. The stack
// is booted in-process through public APIs only, with the
// `gemrec serve` defaults; the generator drives it over wire-v2
// pipelined connections (or, for the in-process replay, straight
// through QueryBackend::SubmitAsync).

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ebsn/split.h"
#include "ebsn/synthetic.h"
#include "embedding/trainer.h"
#include "graph/graph_builder.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/server.h"
#include "serving/ingestion_queue.h"
#include "serving/recommendation_service.h"
#include "serving/snapshot_builder.h"
#include "shard/coordinator.h"
#include "shard/shard_group.h"

namespace gemrec::perfbench {

using Clock = std::chrono::steady_clock;

/// Model scale. The user population is about four times the result
/// cache, so a flat-popularity stream misses it; see README.md.
inline constexpr uint32_t kUsers = 16000;
inline constexpr uint32_t kEvents = 800;
inline constexpr uint32_t kDim = 16;
inline constexpr uint64_t kTrainSteps = 400000;
inline constexpr uint32_t kTopKEventsPerPartner = 20;
inline constexpr uint32_t kTopN = 10;
/// Every workload serves the same model, built from this fixed seed;
/// --seed drives the request stream and arrivals. Cost per query then
/// differs between seeds only by what the traffic asks for.
inline constexpr uint64_t kModelSeed = 20180416;

struct WorkloadSpec {
  const char* name;
  const char* why;
  /// Popularity exponent of the querying user (0 = flat).
  double zipf_s;
  std::array<double, kNumRequestKinds> mix;
  /// Front end serves a CoordinatorBackend over a 2-shard ShardGroup.
  bool sharded;
  /// Paced Attend/PublishNewEvent writes per second beside the reads.
  double write_rate;
  /// Frozen open-loop offered loads (requests/s) of the low and high
  /// phases, picked once from max_qps (README.md says how). Absolute,
  /// so a parent and a change always see the same offered load.
  double low_rate;
  double high_rate;
};

/// Closed-loop pipelined window per connection (max phase and
/// warm-up), kept well below the server's max_in_flight so nothing is
/// shed.
inline constexpr uint32_t kWindow = 16;

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Deterministically generated and trained model (single-threaded
/// training, so the embeddings repeat bit for bit for one seed).
struct Model {
  ebsn::SyntheticData data;
  std::unique_ptr<ebsn::ChronologicalSplit> split;
  std::unique_ptr<graph::EbsnGraphs> graphs;
  std::unique_ptr<embedding::JointTrainer> trainer;
  double generate_s = 0;
  double graphs_s = 0;
  double train_s = 0;

  const embedding::EmbeddingStore& store() const { return trainer->store(); }
  /// FNV-1a over the user and event embedding bits.
  uint64_t Fingerprint() const;
};

std::unique_ptr<Model> BuildModel(uint64_t seed);

/// The running serve stack of one workload. Every serve stack runs
/// the library's own ServiceOptions{} and ServerOptions{} defaults
/// (the `gemrec serve` defaults) with `reactors` listeners; the
/// sharded workload's coordinator front end keeps ServerOptions{}
/// untouched, the `gemrec coordinate` default.
class Stack {
 public:
  static Result<std::unique_ptr<Stack>> Start(const Model& model,
                                              const WorkloadSpec& spec,
                                              uint32_t reactors,
                                              const std::string& scratch_dir);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  uint16_t port() const { return front_->port(); }
  /// What the front end serves: the service, or the coordinator.
  serving::QueryBackend* backend() const { return backend_; }
  /// Unsharded: the live service. Sharded: the unsharded in-process
  /// instance replies are compared against (not behind the front end).
  serving::RecommendationService* service() const { return service_.get(); }
  bool sharded() const { return shards_ != nullptr; }
  double snapshot_build_s() const { return snapshot_build_s_; }
  /// What each serve stack (each shard, when sharded) runs with.
  const serving::ServiceOptions& service_options() const {
    return service_options_;
  }
  const net::ServerOptions& server_options() const { return server_options_; }
  /// Reactors of the front end the generator connects to.
  uint32_t front_reactors() const { return front_reactors_; }

 private:
  Stack() = default;

  std::unique_ptr<serving::SnapshotBuilder> builder_;
  std::unique_ptr<serving::RecommendationService> service_;
  std::unique_ptr<serving::IngestionQueue> ingest_;
  std::unique_ptr<shard::ShardGroup> shards_;
  std::unique_ptr<shard::CoordinatorBackend> coordinator_;
  std::unique_ptr<net::NetServer> front_;
  serving::QueryBackend* backend_ = nullptr;
  double snapshot_build_s_ = 0;
  serving::ServiceOptions service_options_;
  net::ServerOptions server_options_;
  uint32_t front_reactors_ = 0;
};

/// One reply as the generator saw it.
struct Completion {
  uint64_t id = 0;
  /// A query response arrived (it may still be partial or rejected).
  bool answered = false;
  serving::QueryResponse response;
  Clock::time_point at;
};

/// A request path the generator drives: the wire, or SubmitAsync.
class Channel {
 public:
  virtual ~Channel() = default;
  /// Readable when completions may be waiting.
  virtual int wait_fd() const = 0;
  virtual bool Send(const serving::QueryRequest& request, uint64_t id) = 0;
  /// Appends every completion available now, without blocking; false
  /// on a transport failure.
  virtual bool Drain(std::vector<Completion>* out) = 0;
};

/// Wire-v2 pipelined connection (SendTagged / ReceiveAny).
class WireChannel : public Channel {
 public:
  static Result<std::unique_ptr<WireChannel>> Connect(uint16_t port);
  int wait_fd() const override { return client_->fd(); }
  bool Send(const serving::QueryRequest& request, uint64_t id) override;
  bool Drain(std::vector<Completion>* out) override;
  net::Client* client() { return client_.get(); }

 private:
  explicit WireChannel(std::unique_ptr<net::Client> client)
      : client_(std::move(client)) {}
  std::unique_ptr<net::Client> client_;
};

/// In-process replay through QueryBackend::SubmitAsync, no socket.
/// Completions are stamped on the completing thread.
class InprocChannel : public Channel {
 public:
  explicit InprocChannel(serving::QueryBackend* backend);
  ~InprocChannel() override;
  int wait_fd() const override { return state_->event_fd; }
  bool Send(const serving::QueryRequest& request, uint64_t id) override;
  bool Drain(std::vector<Completion>* out) override;

 private:
  struct State {
    ~State();
    int event_fd = -1;
    std::mutex mu;
    std::vector<Completion> done;
  };
  serving::QueryBackend* backend_;
  std::shared_ptr<State> state_;
};

/// Keeps the snapshots sampled replies were served from, so they can
/// be checked after the phase against the exact snapshot; holds at
/// most kMaxHeld distinct epochs (samples from others are skipped).
class SnapshotTap {
 public:
  static constexpr size_t kMaxHeld = 2;
  explicit SnapshotTap(serving::RecommendationService* service)
      : service_(service) {}
  std::shared_ptr<const serving::ModelSnapshot> Get(uint64_t epoch);
  void Clear();

 private:
  serving::RecommendationService* service_;
  std::mutex mu_;
  std::vector<std::shared_ptr<const serving::ModelSnapshot>> held_;
};

/// Client-side freshness clock: when each epoch was first seen in a
/// read reply.
class EpochWatch {
 public:
  void Observe(uint64_t epoch, Clock::time_point at);
  uint64_t max_epoch() const { return max_.load(std::memory_order_acquire); }
  /// First-seen time of the oldest epoch newer than `epoch`.
  std::optional<Clock::time_point> FirstNewerThan(uint64_t epoch) const;

 private:
  std::atomic<uint64_t> max_{0};
  mutable std::mutex mu_;
  std::vector<std::pair<uint64_t, Clock::time_point>> first_seen_;
};

struct PhaseSpec {
  std::string name;
  bool open_loop = false;
  /// Open loop: offered requests/s over all connections.
  double rate = 0;
  /// Closed loop: requests kept in flight per connection.
  uint32_t window = 0;
  double seconds = 0;
  uint64_t seed = 0;
};

struct OracleSample {
  serving::QueryRequest request;
  serving::QueryResponse response;
  /// The snapshot that served it (unsharded stacks only).
  std::shared_ptr<const serving::ModelSnapshot> snapshot;
};

struct PhaseResult {
  std::vector<double> latency_us;  // answered ok, from intended send
  /// Completion of each latency sample, in seconds since phase start.
  std::vector<double> done_s;
  std::vector<double> late_us;     // open loop: send - intended
  uint64_t attempted = 0;
  uint64_t ok = 0;
  /// Typed errors, rejected, bad-request and partial replies.
  uint64_t error_replies = 0;
  uint64_t transport_errors = 0;
  uint64_t unanswered = 0;
  uint64_t cache_hits = 0;
  std::array<uint64_t, kNumRequestKinds> kinds{};
  std::array<uint64_t, kNumRequestKinds> miss_kinds{};
  /// CPU of the generator threads themselves (RUSAGE_THREAD).
  double generator_cpu_s = 0;
  /// Every generator thread got kGeneratorNice.
  bool raised_priority = true;
  std::vector<OracleSample> samples;
  /// Requests answered from outside the cache (replayed directly
  /// against the recommend layer in the traced run).
  std::vector<serving::QueryRequest> misses;

  uint64_t failed() const {
    return error_replies + transport_errors + unanswered;
  }
};

/// Every kSampleEvery-th request of a generator thread is kept for the
/// oracle, at most kMaxSamplesPerThread per phase.
inline constexpr uint32_t kSampleEvery = 32;
inline constexpr uint32_t kMaxSamplesPerThread = 3;
/// A phase gives up on replies this long after its schedule ends.
inline constexpr std::chrono::milliseconds kDrainGrace{2000};

struct GeneratorOptions {
  StreamOptions stream;
  size_t max_misses_per_thread = 0;
  SnapshotTap* tap = nullptr;
  EpochWatch* watch = nullptr;
};

/// Nice value generator and writer threads ask for. The client gets
/// ahead of the serve stack's threads on a shared host, as a load
/// generator on its own host would be, so its sends leave on schedule.
inline constexpr int kGeneratorNice = -10;

/// Applies kGeneratorNice to the calling thread; false when the host
/// does not allow it (the thread then keeps the default priority).
bool RaiseThreadPriority();

/// Runs one phase: `channels[t]` are the connections generator thread t
/// drives. Thread t draws from its own request stream and arrival
/// process, both seeded from (phase seed, t).
PhaseResult RunPhase(const PhaseSpec& phase, const GeneratorOptions& options,
                     const std::vector<std::vector<Channel*>>& channels);

/// Paced writer of the ingest workload: Attend (90%) and
/// PublishNewEvent (10%) at Poisson times, each blocking for its ack.
class Writer {
 public:
  Writer(uint16_t port, const Model& model, double rate, uint64_t seed,
         EpochWatch* watch);
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  Status Start();
  void Stop();

  struct Ack {
    Clock::time_point at;
    double ack_us;
    uint64_t epoch_before;
  };
  /// Valid after Stop.
  const std::vector<Ack>& acks() const { return acks_; }
  uint64_t failures() const { return failures_; }
  /// CPU the writer thread has used (its own thread clock).
  double cpu_s();

 private:
  void Loop();

  uint16_t port_;
  const Model& model_;
  double rate_;
  uint64_t seed_;
  EpochWatch* watch_;
  std::unique_ptr<net::Client> client_;
  std::atomic<bool> stop_{false};
  std::vector<Ack> acks_;
  uint64_t failures_ = 0;
  std::thread thread_;
};

/// Compares one reply with its oracle; empty when they agree, else a
/// description of the first difference. Scores must agree bitwise at
/// every rank, and (event, partner) must agree except inside a run of
/// tied scores, where order among the tied pairs is unspecified.
std::string CompareItems(const std::vector<recommend::Recommendation>& got,
                         const std::vector<recommend::Recommendation>& want);

/// Exact answer for `request` on `snapshot`: BruteForceSearch for
/// partner, GroupTopEvents for group, ReciprocalTopPairs for
/// reciprocal.
std::vector<recommend::Recommendation> OracleAnswer(
    const serving::ModelSnapshot& snapshot,
    const serving::QueryRequest& request);

double ThreadCpuSeconds();
double ProcessCpuSeconds();

}  // namespace gemrec::perfbench

#endif  // GEMREC_PERFBENCH_HARNESS_H_
