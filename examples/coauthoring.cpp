// Co-authoring: the paper's running §4.2.1 scenario, end to end.
//
// Three authors on three sites (two on a LAN, one across a WAN) work on a
// Quilt-style document:
//   * the live abstract is edited concurrently through the OT editor
//     (GROVE-style — zero response time, transformed remote ops);
//   * comments and suggestions hang off the base as hypertext nodes;
//   * a dynamic role policy controls who may edit which region, and a
//     rights change is *negotiated* mid-session;
//   * the awareness engine tells authors about each other's activity
//     instead of locking them out (Figure 2b).
//
// Build & run:  ./coauthoring
#include <cstdio>
#include <string>

#include "core/coop.hpp"

using namespace coop;

namespace {
constexpr ccontrol::ClientId kAlice = 1;
constexpr ccontrol::ClientId kBob = 2;
constexpr ccontrol::ClientId kCarol = 3;
}  // namespace

int main() {
  Platform platform(/*seed=*/42);
  auto& sim = platform.simulator();
  auto& net = platform.network();

  // Alice and Bob share a LAN; Carol is at a partner organisation.
  net.set_default_link(net::LinkModel::lan());
  net.set_symmetric_link(1, 10, net::LinkModel::lan());
  net.set_symmetric_link(3, 10, net::LinkModel::wan());
  net.set_symmetric_link(3, 1, net::LinkModel::wan());
  net.set_symmetric_link(3, 2, net::LinkModel::wan());

  // --- access control: roles, fine-grained regions, negotiation ------------
  access::RolePolicy policy;
  policy.define_role("reader");
  policy.define_role("author", "reader");
  policy.grant_role("reader", "abstract", access::kRead);
  policy.grant_role("author", "abstract",
                    access::kRead | access::kWrite | access::kAnnotate);
  policy.assign(kAlice, "author");
  policy.assign(kBob, "author");
  policy.assign(kCarol, "reader");  // external reviewer, read-only for now
  policy.on_change([&](const std::string& d) {
    std::printf("[policy] %s\n", d.c_str());
  });

  // --- the document ----------------------------------------------------------
  const std::string initial = "CSCW challenges ODP. Discuss.";
  groupware::EditorServer server(net, {10, 1}, initial);
  groupware::EditorClient alice(net, {1, 1}, {10, 1}, kAlice, initial);
  groupware::EditorClient bob(net, {2, 1}, {10, 1}, kBob, initial);
  groupware::EditorClient carol(net, {3, 1}, {10, 1}, kCarol, initial);
  util::Summary alice_notify_us;  // the client keeps no samples itself
  alice.on_remote_change([&](const ccontrol::TextOp&, sim::Duration d) {
    alice_notify_us.add(static_cast<double>(d));
  });
  alice.connect();
  bob.connect();
  carol.connect();

  groupware::HyperDocument doc("position-paper");
  const auto abstract_node = doc.add_base(kAlice, initial);

  // --- awareness instead of walls ---------------------------------------------
  awareness::SpatialModel space;
  space.place(kAlice, {0, 0});
  space.place(kBob, {2, 0});
  space.place(kCarol, {50, 0});  // far away — peripheral by default
  awareness::AwarenessEngine engine(sim, space,
                                    {.full_threshold = 0.4,
                                     .digest_period = sim::sec(2),
                                     .interest_decay = sim::sec(120)});
  for (auto who : {kAlice, kBob, kCarol}) {
    engine.subscribe(who, [&, who](const awareness::ActivityEvent& e,
                                   double w, bool digest) {
      std::printf("[%7.1f ms] user %u aware: user %u %s %s (w=%.2f%s)\n",
                  sim::to_ms(sim.now()), who, e.actor, e.verb.c_str(),
                  e.object.c_str(), w, digest ? ", digested" : "");
    });
  }

  // --- the work ----------------------------------------------------------------
  sim.schedule_at(sim::msec(5), [&] {
    if (policy.check(kAlice, "abstract", access::kWrite)) {
      alice.insert(0, "The user-centred philosophy of ");
      engine.publish({kAlice, "abstract", "edits", sim.now()});
    }
  });
  sim.schedule_at(sim::msec(8), [&] {
    if (policy.check(kBob, "abstract", access::kWrite)) {
      // Position computed from Bob's CURRENT replica — remote ops may
      // already have shifted the text.
      const auto pos = bob.doc().find(" Discuss.");
      if (pos != std::string::npos) bob.erase(pos, 9);
      engine.publish({kBob, "abstract", "edits", sim.now()});
    }
  });
  sim.schedule_at(sim::msec(12), [&] {
    // Carol may not write — but can annotate?  Not yet: reader lacks it.
    const bool can = policy.check(kCarol, "abstract", access::kWrite);
    std::printf("[%7.1f ms] carol write check: %s\n",
                sim::to_ms(sim.now()), can ? "allowed" : "denied");
    doc.attach(kCarol, abstract_node, groupware::NodeKind::kComment,
               "Should cite the ODP viewpoints here.");
    engine.publish({kCarol, "abstract", "comments on", sim.now()});
  });

  // --- negotiation: promote Carol to author mid-session ------------------------
  access::RightsNegotiator negotiator(
      sim, policy,
      {.policy = access::VotePolicy::kMajority,
       .voting_window = sim::sec(10)});
  negotiator.set_approvers({kAlice, kBob});
  // Start after Carol's join snapshot has crossed the WAN.
  sim.schedule_at(sim::msec(200), [&] {
    std::printf("[%7.1f ms] carol requests author rights...\n",
                sim::to_ms(sim.now()));
    const auto id = negotiator.propose(
        kCarol,
        {.kind = access::ProposedChange::Kind::kAssignRole,
         .role = "author",
         .client = kCarol,
         .object = {},
         .region = {},
         .rights = 0},
        [&](bool accepted) {
          std::printf("[%7.1f ms] negotiation outcome: %s\n",
                      sim::to_ms(sim.now()),
                      accepted ? "accepted" : "rejected");
          if (accepted) {
            carol.insert(0, "[rev] ");
            engine.publish({kCarol, "abstract", "edits", sim.now()});
          }
        });
    // Colleagues vote promptly.
    sim.schedule_after(sim::msec(10),
                       [&negotiator, id] { negotiator.vote(id, kAlice, true); });
    sim.schedule_after(sim::msec(20),
                       [&negotiator, id] { negotiator.vote(id, kBob, true); });
  });

  platform.run_until(sim::sec(5));

  std::printf("\nconverged abstract (server): \"%s\"\n",
              server.doc().c_str());
  std::printf("alice: \"%s\"\nbob:   \"%s\"\ncarol: \"%s\"\n",
              alice.doc().c_str(), bob.doc().c_str(), carol.doc().c_str());
  const bool converged = alice.doc() == server.doc() &&
                         bob.doc() == server.doc() &&
                         carol.doc() == server.doc();
  std::printf("replicas converged: %s\n", converged ? "yes" : "NO");
  std::printf("comments attached: %zu; alice's notification p95: %.1f ms "
              "(carol is %zu WAN hops away)\n",
              doc.children(abstract_node).size(),
              alice_notify_us.p95() / 1000.0,
              static_cast<std::size_t>(2));

  const char* trace_path = "coauthoring.trace.json";
  if (obs::write_trace_json(platform.tracer(), trace_path)) {
    std::printf("trace written to %s (open in Perfetto)\n", trace_path);
  } else {
    std::fprintf(stderr, "warning: failed to write %s\n", trace_path);
  }
  return converged ? 0 : 1;
}
