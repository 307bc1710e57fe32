// Operational transformation for replicated text — the GROVE approach the
// paper highlights in §4.2.1: "operations [are] allowed to proceed
// immediately to improve real-time response time.  To maintain consistency,
// it might be necessary however to execute a transformed operation rather
// than the original operation."
//
// coop implements the Jupiter client/server architecture: each client
// applies local operations immediately (zero response time), ships them to
// a server that serializes and transforms them against concurrent
// operations, and transforms incoming server operations against its own
// in-flight ones.  With the star topology only transformation property TP1
// is required, which the character-granular transform below satisfies
// (deletes are generated one character at a time; inserts may carry
// strings).
//
// The engine is pure logic — messages in, messages out — so it can be
// property-tested exhaustively and wired to any transport (the groupware
// editor runs it over FIFO channels; the benches drive it directly).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/codec.hpp"

namespace coop::ccontrol {

/// Site identifier used only to tie-break concurrent inserts at the same
/// position (lower site wins the earlier position, at every replica).
using SiteId = std::uint32_t;

/// A single text operation.  Deletes always remove exactly one character;
/// the editor layer splits longer deletions into character ops.
struct TextOp {
  enum class Kind : std::uint8_t { kInsert, kDelete, kNoop };
  friend COOP_ENUM_RANGE(Kind, kInsert, kNoop)

  Kind kind = Kind::kNoop;
  std::uint64_t pos = 0;
  std::string text;  ///< kInsert payload
  SiteId site = 0;
  COOP_FIELDS(kind, pos, text, site)

  static TextOp insert(std::size_t pos, std::string text, SiteId site) {
    return {Kind::kInsert, pos, std::move(text), site};
  }
  static TextOp erase(std::size_t pos, SiteId site) {
    return {Kind::kDelete, pos, {}, site};
  }
  static TextOp noop() { return {}; }

  [[nodiscard]] bool is_noop() const noexcept { return kind == Kind::kNoop; }

  /// Applies the operation to @p doc (positions clamp to the document).
  void apply(std::string& doc) const;

  bool operator==(const TextOp&) const = default;
};

/// Inclusion transformation: the version of @p a that has the same effect
/// after @p b has been applied.  Satisfies TP1:
///   apply(apply(S, a), xform(b, a)) == apply(apply(S, b), xform(a, b)).
[[nodiscard]] TextOp transform(const TextOp& a, const TextOp& b);

/// One end of a Jupiter synchronization link.  Symmetric: both the client
/// and each per-client server connection run the same state machine.
class OtLink {
 public:
  struct Message {
    TextOp op;
    std::uint64_t sender_generated = 0;  ///< index of this op on the link
    std::uint64_t sender_received = 0;   ///< peer ops seen when generated
    COOP_FIELDS(sender_generated, sender_received, op)
  };

  /// Stamps and records a locally generated operation for sending.
  Message generate(const TextOp& op);

  /// Ingests a peer message; returns the operation transformed into this
  /// side's current context, ready to apply locally.
  TextOp receive(const Message& msg);

  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }

 private:
  TextOp& outgoing(std::size_t i) noexcept {
    return outgoing_[(head_ + i) & (outgoing_.size() - 1)];
  }

  /// Ring of the in-flight local ops, oldest first: op i has link index
  /// generated_ - in_flight_ + i.  Slots are assigned over, not rebuilt,
  /// so an insert's text reuses the capacity its slot already has.
  std::vector<TextOp> outgoing_;
  std::size_t head_ = 0;
  std::size_t in_flight_ = 0;
  std::uint64_t generated_ = 0;
  std::uint64_t received_ = 0;
};

/// Client replica: applies local edits instantly, syncs through one link.
class OtClient {
 public:
  explicit OtClient(SiteId site, std::string initial = {})
      : site_(site), doc_(std::move(initial)) {}

  /// Local user edit: applied immediately; returns the message to ship to
  /// the server.
  OtLink::Message local_insert(std::size_t pos, std::string text);
  OtLink::Message local_delete(std::size_t pos);

  /// Server message: transforms against in-flight local ops and applies.
  void receive(const OtLink::Message& msg);

  [[nodiscard]] const std::string& doc() const noexcept { return doc_; }
  [[nodiscard]] SiteId site() const noexcept { return site_; }
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return link_.in_flight();
  }

 private:
  SiteId site_;
  std::string doc_;
  OtLink link_;
};

/// Server replica: serializes all clients' operations.  Pure logic — the
/// caller moves the returned messages to each destination client.
class OtServer {
 public:
  explicit OtServer(std::string initial = {}) : doc_(std::move(initial)) {}

  /// Registers a client connection (its link starts empty).
  void add_client(SiteId site) { links_.try_emplace(site); }
  void remove_client(SiteId site) { links_.erase(site); }

  /// Outgoing fan-out unit: deliver `message` to client `to`.
  struct Outgoing {
    SiteId to;
    OtLink::Message message;
  };

  /// Ingests a client message; applies it to the server document and
  /// replaces the contents of @p out with the transformed operation
  /// addressed to every *other* client.  Reusing one @p out across calls
  /// keeps the fan-out off the heap.
  void receive(SiteId from, const OtLink::Message& msg,
               std::vector<Outgoing>& out);

  [[nodiscard]] const std::string& doc() const noexcept { return doc_; }
  [[nodiscard]] std::size_t client_count() const noexcept {
    return links_.size();
  }

 private:
  std::string doc_;
  std::map<SiteId, OtLink> links_;
};

}  // namespace coop::ccontrol
