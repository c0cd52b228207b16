// Temporary: inspect embedding sparsity / TA prunability.
#include <algorithm>
#include <cstdio>
#include <vector>
#include "bench/bench_util.h"
using namespace gemrec;
int main() {
  auto city = bench::MakeCity(ebsn::SyntheticConfig::Beijing(1.0));
  auto t = bench::TrainEmbedding(city, embedding::TrainerOptions::GemA());
  const auto& users = t->store().MatrixOf(graph::NodeType::kUser);
  const auto& events = t->store().MatrixOf(graph::NodeType::kEvent);
  auto stats = [](const Matrix& m, const char* name) {
    size_t zeros = 0; double total = 0;
    std::vector<float> row_max;
    for (size_t r = 0; r < m.rows(); ++r) {
      float rmax = 0;
      for (size_t c = 0; c < m.cols(); ++c) {
        float v = m.At(r, c);
        if (v < 1e-6) ++zeros;
        total += v; rmax = std::max(rmax, v);
      }
      row_max.push_back(rmax);
    }
    double mean = total / (m.rows() * m.cols());
    printf("%s: zeros=%.1f%% mean=%.3f\n", name,
           100.0 * zeros / (m.rows() * m.cols()), mean);
  };
  stats(users, "users");
  stats(events, "events");
  // effective dims of a few user query vectors: fraction of |u|_1 mass
  // in top-5 coords
  for (uint32_t u : {3u, 100u, 500u}) {
    std::vector<float> v(users.Row(u), users.Row(u) + users.cols());
    std::sort(v.rbegin(), v.rend());
    double l1 = 0, top5 = 0;
    for (size_t i = 0; i < v.size(); ++i) { l1 += v[i]; if (i < 5) top5 += v[i]; }
    printf("user %u: l1=%.2f top5_frac=%.2f max=%.2f\n", u, l1, top5 / std::max(1e-9, l1), v[0]);
  }
  return 0;
}
