#include "ccontrol/ot.hpp"

#include <algorithm>

namespace coop::ccontrol {

void TextOp::apply(std::string& doc) const {
  switch (kind) {
    case Kind::kInsert: {
      const std::size_t p = std::min(pos, doc.size());
      doc.insert(p, text);
      break;
    }
    case Kind::kDelete:
      if (pos < doc.size()) doc.erase(pos, 1);
      break;
    case Kind::kNoop:
      break;
  }
}

TextOp transform(const TextOp& a, const TextOp& b) {
  using Kind = TextOp::Kind;
  if (a.is_noop() || b.is_noop()) return a;

  TextOp r = a;
  if (a.kind == Kind::kInsert && b.kind == Kind::kInsert) {
    // Ties broken by site id so both replicas shift the same insert.
    if (b.pos < a.pos || (b.pos == a.pos && b.site < a.site))
      r.pos += b.text.size();
    return r;
  }
  if (a.kind == Kind::kInsert && b.kind == Kind::kDelete) {
    if (b.pos < a.pos) r.pos -= 1;
    return r;
  }
  if (a.kind == Kind::kDelete && b.kind == Kind::kInsert) {
    if (b.pos <= a.pos) r.pos += b.text.size();
    return r;
  }
  // delete vs delete (both single character)
  if (b.pos < a.pos) {
    r.pos -= 1;
  } else if (b.pos == a.pos) {
    r = TextOp::noop();  // both removed the same character
  }
  return r;
}

OtLink::Message OtLink::generate(const TextOp& op) {
  if (in_flight_ == outgoing_.size()) {
    // Full: re-lay the ring out from slot 0 at twice the size (sizes stay
    // powers of two, so indices wrap with a mask).
    std::vector<TextOp> grown(std::max<std::size_t>(4, 2 * outgoing_.size()));
    for (std::size_t i = 0; i < in_flight_; ++i)
      grown[i] = std::move(outgoing(i));
    outgoing_ = std::move(grown);
    head_ = 0;
  }
  outgoing(in_flight_++) = op;
  return {op, generated_++, received_};
}

TextOp OtLink::receive(const Message& msg) {
  // Drop operations the peer has acknowledged seeing.
  while (in_flight_ > 0 && generated_ - in_flight_ < msg.sender_received) {
    head_ = (head_ + 1) & (outgoing_.size() - 1);
    --in_flight_;
  }

  // Transform the incoming op over every in-flight local op — and each
  // in-flight op over the incoming one, so future receives see updated
  // contexts (the Jupiter state-space walk).
  TextOp incoming = msg.op;
  for (std::size_t i = 0; i < in_flight_; ++i) {
    TextOp& local = outgoing(i);
    TextOp incoming_next = transform(incoming, local);
    local = transform(local, incoming);
    incoming = std::move(incoming_next);
  }
  ++received_;
  return incoming;
}

OtLink::Message OtClient::local_insert(std::size_t pos, std::string text) {
  TextOp op = TextOp::insert(pos, std::move(text), site_);
  op.apply(doc_);
  return link_.generate(op);
}

OtLink::Message OtClient::local_delete(std::size_t pos) {
  TextOp op = TextOp::erase(pos, site_);
  op.apply(doc_);
  return link_.generate(op);
}

void OtClient::receive(const OtLink::Message& msg) {
  const TextOp op = link_.receive(msg);
  op.apply(doc_);
}

void OtServer::receive(SiteId from, const OtLink::Message& msg,
                       std::vector<Outgoing>& out) {
  out.clear();
  auto it = links_.find(from);
  if (it == links_.end()) return;
  const TextOp op = it->second.receive(msg);
  op.apply(doc_);
  if (op.is_noop()) {
    // Still consume a slot on other links?  No: noops need not be
    // broadcast; other clients' documents are unaffected.
    return;
  }
  for (auto& [site, link] : links_) {
    if (site == from) continue;
    out.push_back({site, link.generate(op)});
  }
}

}  // namespace coop::ccontrol
