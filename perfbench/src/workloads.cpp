#include <cmath>

#include "rfp/track/tracking_engine.hpp"
#include "workloads.hpp"

namespace perfbench {

std::unique_ptr<Loopback> start_loopback(const rfp::Testbed& bed,
                                         std::size_t engine_threads,
                                         rfp::net::ServerConfig config) {
  auto sut = std::make_unique<Loopback>(
      bed.make_pipeline_variant(bed.prism().config()), engine_threads);
  config.reactors = 1;
  sut->server =
      std::make_unique<rfp::net::Server>(sut->prism, sut->engine, config);
  sut->server->start();
  rfp::net::ClientConfig client_config;
  client_config.port = sut->server->port();
  client_config.request_attempts = 1;
  sut->client = std::make_unique<rfp::net::Client>(client_config);
  return sut;
}

double static_tracked_rmse_cm(
    const std::vector<std::vector<rfp::StreamedResult>>& emissions,
    const std::map<std::string, rfp::Vec2>& truth, std::size_t warmup,
    double cycle_period_s) {
  rfp::track::TrackingConfig config;
  config.enable = true;
  rfp::track::TrackingEngine engine(config);
  double sum_sq = 0.0;
  std::size_t n = 0;
  for (std::size_t c = 0; c < emissions.size(); ++c) {
    const double now = cycle_period_s * static_cast<double>(c + 1);
    engine.observe_emissions(emissions[c], now);
    for (const rfp::track::TrackEvent& e : engine.take_events()) {
      if (c < warmup || !e.fix_accepted) continue;
      const rfp::Vec2 at = truth.at(e.tag_id);
      const double dx = e.position.x - at.x, dy = e.position.y - at.y;
      sum_sq += dx * dx + dy * dy;
      ++n;
    }
  }
  return n == 0 ? 0.0 : 100.0 * std::sqrt(sum_sq / static_cast<double>(n));
}

}  // namespace perfbench
