// Multi-user hypertext document model (§3.2.3) in the style of Quilt: a
// *base* text plus trees of suggestions, comments and annotations hanging
// off it, built independently by multiple authors.
//
// "A document in Quilt consists of a base and nodes linked to the base
// using hypertext techniques ... At any time a Quilt comment network will
// consist of a current base document, some revision suggestions, and a
// set of comments."
//
// Also here: the region vocabulary for lock-granularity experiments (E2) —
// splitting a text into document/section/paragraph/sentence/word units and
// mapping a character position to its enclosing unit's lock resource name
// (§4.2.1: "it is not clear in joint authoring applications whether locks
// should be applied at the granularity of sections, paragraphs, sentences
// or even words").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ccontrol/locks.hpp"  // ClientId
#include "sim/time.hpp"

namespace coop::groupware {

using ClientId = ccontrol::ClientId;
using DocNodeId = std::uint64_t;

/// Node kinds in the comment network.
enum class NodeKind : std::uint8_t {
  kBase,        ///< a section of the published document
  kSuggestion,  ///< a proposed revision of the node it attaches to
  kComment,     ///< discussion (may attach to any node, incl. comments)
  kAnnotation,  ///< margin note / post-it
};

/// One node of the hypertext network.
struct DocNode {
  DocNodeId id = 0;
  NodeKind kind = NodeKind::kBase;
  ClientId author = 0;
  std::string content;
  DocNodeId attached_to = 0;  ///< 0 for base nodes
  sim::TimePoint created = 0;
  bool resolved = false;  ///< suggestions: accepted/rejected and archived
};

/// The Quilt-style comment network.
class HyperDocument {
 public:
  explicit HyperDocument(std::string title) : title_(std::move(title)) {}

  /// Appends a base section.  Returns its node id.
  DocNodeId add_base(ClientId author, std::string content,
                     sim::TimePoint now = 0);

  /// Attaches a suggestion/comment/annotation to an existing node.
  /// Returns 0 if the target does not exist or the kind is kBase.
  DocNodeId attach(ClientId author, DocNodeId target, NodeKind kind,
                   std::string content, sim::TimePoint now = 0);

  /// Accepts a suggestion: its content replaces the attached base node's
  /// content; the suggestion is marked resolved.  False unless @p node
  /// is an unresolved suggestion attached to a base node.
  bool accept_suggestion(DocNodeId node);

  /// Rejects (archives) a suggestion.
  bool reject_suggestion(DocNodeId node);

  [[nodiscard]] const DocNode* node(DocNodeId id) const;

  /// Direct children of @p id (comments on a comment form threads).
  [[nodiscard]] std::vector<DocNodeId> children(DocNodeId id) const;

  /// Base nodes in document order.
  [[nodiscard]] std::vector<DocNodeId> base_nodes() const {
    return base_order_;
  }

  /// The published text: base node contents joined by blank lines.
  [[nodiscard]] std::string text() const;

  /// Unresolved suggestions (the review work list).
  [[nodiscard]] std::vector<DocNodeId> open_suggestions() const;

  /// Observer for every structural change (feeds awareness).
  void on_change(std::function<void(const DocNode&)> fn) {
    on_change_ = std::move(fn);
  }

  [[nodiscard]] const std::string& title() const noexcept { return title_; }

 private:
  std::string title_;
  std::map<DocNodeId, DocNode> nodes_;
  std::vector<DocNodeId> base_order_;
  DocNodeId next_id_ = 1;
  std::function<void(const DocNode&)> on_change_;
};

// ------------------------------------------------------------- granularity

/// Units at which a shared text can be locked.
enum class Granularity : std::uint8_t {
  kDocument,
  kSection,    ///< blocks separated by "\n\n"-delimited "# " headings
  kParagraph,  ///< blocks separated by blank lines
  kSentence,   ///< split on ". "
  kWord,       ///< split on whitespace
};

/// A locking unit: the resource name to lock plus its character span.
struct TextRegion {
  std::string resource;  ///< e.g. "doc/para/3"
  std::size_t begin = 0;
  std::size_t end = 0;  ///< half-open
};

/// Splits @p text into locking units at @p g.  Regions are contiguous and
/// cover the whole text (separators belong to the preceding region).
[[nodiscard]] std::vector<TextRegion> split_regions(
    const std::string& doc_name, const std::string& text, Granularity g);

/// The lock resource protecting character @p pos of @p text at @p g.
/// Falls back to the whole document if @p pos is out of range.
[[nodiscard]] std::string region_at(const std::string& doc_name,
                                    const std::string& text, Granularity g,
                                    std::size_t pos);

}  // namespace coop::groupware
