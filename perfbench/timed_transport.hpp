// Timing and counting decorator for one mp::Transport endpoint.
//
// Wraps a rank's endpoint (a LoopbackHub endpoint in the benchmark) and
// records, for that rank only, the frames and bytes it sends, the time
// spent inside send() — the mp engine's round flush — and the time spent
// blocked in recv() waiting for peers (recv-wait). Each endpoint is
// driven by one thread, so the counters need no synchronisation; read
// them after the rank's thread has been joined.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "mp/transport.hpp"
#include "spans.hpp"

namespace perfbench {

struct TransportCounters {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  double send_s = 0;
  double recv_wait_s = 0;
};

class TimedTransport final : public dmatch::mp::Transport {
 public:
  TimedTransport(dmatch::mp::Transport& inner, TransportCounters& counters,
                 SpanLog* spans)
      : inner_(&inner), counters_(&counters), spans_(spans) {}

  [[nodiscard]] unsigned rank() const noexcept override {
    return inner_->rank();
  }
  [[nodiscard]] unsigned size() const noexcept override {
    return inner_->size();
  }

  bool send(unsigned peer, std::span<const std::uint8_t> frame) override {
    const ScopedSpan span(spans_, "mp::Transport::send");
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = inner_->send(peer, frame);
    counters_->send_s += seconds_since(t0);
    ++counters_->frames;
    counters_->bytes += frame.size();
    return ok;
  }

  dmatch::mp::RecvStatus recv(unsigned peer, std::vector<std::uint8_t>& out,
                              int deadline_ms) override {
    const ScopedSpan span(spans_, "mp::Transport::recv");
    const auto t0 = std::chrono::steady_clock::now();
    const dmatch::mp::RecvStatus status = inner_->recv(peer, out, deadline_ms);
    counters_->recv_wait_s += seconds_since(t0);
    return status;
  }

 private:
  static double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  dmatch::mp::Transport* inner_;
  TransportCounters* counters_;
  SpanLog* spans_;
};

}  // namespace perfbench
