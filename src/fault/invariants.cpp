#include "fault/invariants.hpp"

#include <cstring>

namespace coop::fault {

void Invariants::check_at_most_once() {
  for (const auto& [op, count] : executions_) {
    if (count > 1) {
      violation("at-most-once: op '" + op + "' executed " +
                std::to_string(count) + " times in one incarnation");
    }
  }
}

void Invariants::check_acknowledged_durable() {
  for (const auto& [op, acked] : acknowledged_) {
    if (!acked) continue;
    const auto it = applied_.find(op);
    if (it == applied_.end() || !it->second) {
      violation("acknowledged op lost: '" + op +
                "' was acked to the client but is absent from the durable "
                "state");
    }
  }
}

void Invariants::check_convergence() {
  const std::string* first = nullptr;
  const std::string* first_replica = nullptr;
  for (const auto& [replica, digest] : digests_) {
    if (first == nullptr) {
      first = &digest;
      first_replica = &replica;
      continue;
    }
    if (digest != *first) {
      violation("divergence: replica '" + replica + "' digest '" + digest +
                "' != '" + *first_replica + "' digest '" + *first + "'");
    }
  }
}

void Invariants::check_view_agreement() {
  const std::pair<std::uint64_t, std::size_t>* first = nullptr;
  const std::string* first_member = nullptr;
  for (const auto& [member, view] : views_) {
    if (first == nullptr) {
      first = &view;
      first_member = &member;
      continue;
    }
    if (view != *first) {
      violation("view disagreement: '" + member + "' installed view " +
                std::to_string(view.first) + " (" +
                std::to_string(view.second) + " members) but '" +
                *first_member + "' installed view " +
                std::to_string(first->first) + " (" +
                std::to_string(first->second) + " members)");
    }
  }
}

void Invariants::check_no_acked_shed() {
  for (const auto& [op, shed_count] : sheds_) {
    if (shed_count == 0) continue;
    const auto ack = acknowledged_.find(op);
    if (ack == acknowledged_.end() || !ack->second) continue;
    const auto exec = executions_.find(op);
    if (exec == executions_.end() || exec->second == 0) {
      violation("acked-but-shed: op '" + op + "' was acknowledged, " +
                std::to_string(shed_count) +
                " attempt(s) were shed, and no execution was recorded — a "
                "pushback was converted into a success");
    }
  }
}

void Invariants::check_corruption_contained(const net::NetworkStats& stats,
                                            std::uint64_t injected_corrupt) {
  // Every injected corruption must be absorbed by a drop path.  Frames
  // can die of partition/loss/no-endpoint before the integrity check, so
  // dropped_corrupt alone may undercount — but the total drop capacity
  // must cover the injections, or a mangled frame was delivered.
  const std::uint64_t other_drops = stats.dropped_loss +
                                    stats.dropped_partition +
                                    stats.dropped_no_endpoint;
  if (stats.dropped_corrupt > injected_corrupt) {
    violation("corruption accounting: net.dropped_corrupt (" +
              std::to_string(stats.dropped_corrupt) +
              ") exceeds injected corruptions (" +
              std::to_string(injected_corrupt) + ")");
  }
  if (injected_corrupt > stats.dropped_corrupt + other_drops) {
    violation("corruption leak: " +
              std::to_string(injected_corrupt - stats.dropped_corrupt -
                             other_drops) +
              " corrupted frame(s) unaccounted for — some reached an "
              "Endpoint");
  }
}

void Invariants::check_acked_broadcasts_delivered() {
  for (const auto& [member, delivered] : delivered_broadcasts_) {
    for (const auto& [key, acked] : acked_broadcasts_) {
      if (!acked) continue;
      if (delivered.count(key) == 0) {
        violation("acked broadcast lost: '" + key +
                  "' was committed by the group but survivor '" + member +
                  "' never delivered it");
      }
    }
  }
}

std::size_t Invariants::lost_acked_broadcasts() const {
  std::size_t lost = 0;
  for (const auto& [key, acked] : acked_broadcasts_) {
    if (!acked) continue;
    for (const auto& [member, delivered] : delivered_broadcasts_) {
      if (delivered.count(key) == 0) {
        ++lost;
        break;
      }
    }
  }
  return lost;
}

void Invariants::check_single_active_coordinator() {
  if (coordinators_.empty()) return;
  std::vector<std::string> active;
  for (const auto& [name, is_active] : coordinators_) {
    if (is_active) active.push_back(name);
  }
  if (active.size() > 1) {
    std::string who;
    for (const auto& a : active) {
      if (!who.empty()) who += ", ";
      who += "'" + a + "'";
    }
    violation("split brain: " + std::to_string(active.size()) +
              " coordinators ended the run active (" + who + ")");
  } else if (active.empty()) {
    violation("headless group: " + std::to_string(coordinators_.size()) +
              " coordinator instance(s) recorded, none active — the "
              "primary partition failed to elect");
  }
}

void Invariants::check_views_monotone() {
  for (const auto& [member, ids] : installed_) {
    for (std::size_t i = 1; i < ids.size(); ++i) {
      if (ids[i] <= ids[i - 1]) {
        violation("view rollback: '" + member + "' installed view " +
                  std::to_string(ids[i]) + " after view " +
                  std::to_string(ids[i - 1]) +
                  " — ids must be strictly monotone across failover");
      }
    }
  }
}

void Invariants::check_log_bounded(const std::string& replica,
                                   std::size_t max_observed_bytes,
                                   std::size_t cap_bytes) {
  if (max_observed_bytes > cap_bytes) {
    violation("unbounded log: replica '" + replica + "' WAL peaked at " +
              std::to_string(max_observed_bytes) + " bytes, cap " +
              std::to_string(cap_bytes) +
              " — compaction fell behind sustained writes");
  }
}

void Invariants::check_all() {
  check_at_most_once();
  check_acknowledged_durable();
  check_convergence();
  check_view_agreement();
  check_no_acked_shed();
  check_acked_broadcasts_delivered();
  check_single_active_coordinator();
  check_views_monotone();
}

void Invariants::clear() {
  executions_.clear();
  sheds_.clear();
  acknowledged_.clear();
  applied_.clear();
  digests_.clear();
  views_.clear();
  acked_broadcasts_.clear();
  delivered_broadcasts_.clear();
  coordinators_.clear();
  installed_.clear();
  violations_.clear();
}

std::vector<sim::Duration> recovery_latencies(
    const std::vector<obs::TraceEvent>& events) {
  std::vector<sim::Duration> out;
  bool have_outage_end = false;
  sim::TimePoint outage_end = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.category != obs::Category::kFault) continue;
    if (std::strcmp(e.name, "restart") == 0 ||
        std::strcmp(e.name, "heal") == 0) {
      // Consecutive outage-ends before one recovery: measure from the
      // latest (service cannot have been healthy in between).
      outage_end = e.ts;
      have_outage_end = true;
    } else if (std::strcmp(e.name, "recovered") == 0 && have_outage_end) {
      out.push_back(e.ts - outage_end);
      have_outage_end = false;
    }
  }
  return out;
}

}  // namespace coop::fault
