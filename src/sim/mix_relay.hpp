#pragma once

#include <deque>
#include <vector>

#include "src/crypto/onion.hpp"
#include "src/sim/adversary.hpp"
#include "src/sim/network.hpp"
#include "src/stats/rng.hpp"

namespace anonpath::sim {

/// A Chaum mix (paper Sec. 2): "a store-and-forward device that accepts a
/// number of fixed-length messages from different sources, performs a
/// cryptographic transformation, and outputs them in an order not
/// predictable from the order of inputs."
///
/// Mechanically an onion relay that *batches*: incoming messages are held
/// until `batch_size` have accumulated or `flush_interval` elapses since the
/// first held message, then forwarded in a random permutation. Batching
/// decorrelates input/output *timing*; note the paper's worst-case adversary
/// is granted message correlation regardless (Sec. 4), so batching here
/// affects latency, not the posterior — which the tests assert explicitly.
class mix_relay final : public message_sink {
 public:
  /// Preconditions: batch_size >= 1, flush_interval >= 0.
  mix_relay(node_id self, network& net, const crypto::key_registry& keys,
            std::uint32_t batch_size, sim_time flush_interval,
            bool compromised, adversary_monitor* monitor, stats::rng gen);

  void on_message(node_id from, message_slot slot) override;
  void on_timer() override;

  [[nodiscard]] node_id id() const noexcept { return self_; }
  [[nodiscard]] std::size_t held() const noexcept { return pool_.size(); }
  [[nodiscard]] std::uint64_t flushed_batches() const noexcept {
    return batches_;
  }

 private:
  struct pending {
    node_id next;
    message_slot slot;
  };

  void flush();

  node_id self_;
  network& net_;
  const crypto::key_registry& keys_;
  std::uint32_t batch_size_;
  sim_time flush_interval_;
  bool compromised_;
  adversary_monitor* monitor_;
  stats::rng gen_;
  std::vector<pending> pool_;
  std::uint64_t timer_epoch_ = 0;  ///< invalidates stale flush timers
  /// Epoch each outstanding flush timer was armed in. Timers share one
  /// interval and are armed at non-decreasing times, so they fire in
  /// arming order: the front belongs to the next timer to fire.
  std::deque<std::uint64_t> armed_epochs_;
  std::uint64_t batches_ = 0;
};

}  // namespace anonpath::sim
