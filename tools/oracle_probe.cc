// Temporary: data-ceiling probe using the planted generative propensity.
#include <cmath>
#include <cstdio>
#include "bench/bench_util.h"
#include "ebsn/time_slots.h"
using namespace gemrec;
namespace {
class OracleModel : public recommend::RecModel {
 public:
  OracleModel(const bench::CityBundle* city) : city_(city) {}
  std::string Name() const override { return "oracle"; }
  float ScoreUserEvent(ebsn::UserId u, ebsn::EventId x) const override {
    const auto& p = city_->data.user_profiles[u];
    const auto& ev = city_->dataset().event(x);
    double interest = p.topic_interest[ev.topic];
    double hour = ebsn::HourOfDay(ev.start_time);
    int d = std::abs((int)hour - (int)p.preferred_hour);
    double hm = std::exp(-std::min(d, 24 - d) / 3.0);
    bool we = ebsn::IsWeekend(ev.start_time);
    double wm = we ? p.weekend_preference : 1 - p.weekend_preference;
    return static_cast<float>(interest * (0.1 + 0.9 * hm) * (0.1 + 0.9 * wm));
  }
  float ScoreUserUser(ebsn::UserId u, ebsn::UserId v) const override {
    return city_->dataset().AreFriends(u, v) ? 1.0f : 0.0f;
  }
 private:
  const bench::CityBundle* city_;
};
}
int main() {
  auto city = bench::MakeCity(ebsn::SyntheticConfig::Beijing(1.0));
  OracleModel m(&city);
  auto r = bench::EvalColdStart(m, city);
  auto p = bench::EvalPartner(m, city);
  printf("oracle (no geo term): event@10=%.3f event@20=%.3f joint@10=%.3f\n", r.At(10), r.At(20), p.At(10));
  return 0;
}
