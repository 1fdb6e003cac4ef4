#include "rdf/frozen_image.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <numeric>

#include "rdf/dense_graph.h"

namespace rdfsum {

// The on-disk arrays are reinterpreted in place; these pin the layouts the
// format depends on. A platform where they fail needs explicit marshalling,
// not a silent format fork.
static_assert(sizeof(Triple) == 12 && alignof(Triple) == 4);
static_assert(sizeof(DenseGraph::Edge) == 12 && alignof(DenseGraph::Edge) == 4);
static_assert(sizeof(DenseGraph::Neighbor) == 8);

namespace {

Status Corrupt(const std::string& what) {
  return Status::Corruption("frozen image: " + what);
}

bool HostIsLittleEndian() {
  return std::endian::native == std::endian::little;
}

/// Overflow-safe `count * elem == actual`.
bool SizeIs(uint64_t count, uint64_t elem, uint64_t actual) {
  if (elem != 0 && count > UINT64_MAX / elem) return false;
  return count * elem == actual;
}

void AppendPod(std::string* out, const void* p, size_t n) {
  out->append(static_cast<const char*>(p), n);
}

}  // namespace

// ---- ImageBuilder -----------------------------------------------------------

void ImageBuilder::Add(SectionId id, std::string bytes) {
  sections_.emplace_back(static_cast<uint32_t>(id), std::move(bytes));
}

Status ImageBuilder::WriteFile(const std::string& path, uint32_t flags) const {
  if (!HostIsLittleEndian()) {
    return Status::NotSupported("frozen images require a little-endian host");
  }
  std::vector<size_t> order(sections_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return sections_[a].first < sections_[b].first;
  });

  // Canonical layout: each payload starts at ImageAlignUp of the previous
  // end (the first at ImageAlignUp of the table end), and the file ends
  // exactly at the last payload's end. Attach() enforces the same equalities,
  // so identical sections produce — and are required to be — identical bytes.
  const uint64_t table_end =
      sizeof(ImageHeader) + sections_.size() * sizeof(SectionDesc);
  std::vector<SectionDesc> descs;
  descs.reserve(sections_.size());
  uint64_t end = table_end;
  for (size_t idx : order) {
    const auto& [id, bytes] = sections_[idx];
    SectionDesc d{};
    d.id = id;
    d.offset = ImageAlignUp(end);
    d.size = bytes.size();
    d.checksum = ImageFnv1a64(bytes.data(), bytes.size());
    end = d.offset + d.size;
    descs.push_back(d);
  }
  const uint64_t file_size = end;

  ImageHeader header{};
  std::memcpy(header.magic, kImageMagic, sizeof(kImageMagic));
  header.version_major = kImageVersionMajor;
  header.version_minor = kImageVersionMinor;
  header.file_size = file_size;
  header.section_count = static_cast<uint32_t>(sections_.size());
  header.flags = flags;
  header.table_checksum =
      ImageFnv1a64(descs.data(), descs.size() * sizeof(SectionDesc));
  header.header_checksum = ImageFnv1a64(&header, 40);

  std::string buf;
  buf.reserve(file_size);
  AppendPod(&buf, &header, sizeof(header));
  AppendPod(&buf, descs.data(), descs.size() * sizeof(SectionDesc));
  for (size_t i = 0; i < order.size(); ++i) {
    buf.resize(descs[i].offset, '\0');  // zero padding up to the payload
    buf += sections_[order[i]].second;
  }
  buf.resize(file_size, '\0');

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != buf.size() || !closed) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

// ---- Section writers --------------------------------------------------------

void AppendDictionarySections(const Dictionary& dict, ImageMeta* meta,
                              ImageBuilder* out) {
  const uint64_t n = dict.size() - 1;  // excluding reserved id 0
  std::vector<uint64_t> offsets;
  offsets.reserve(n + 1);
  std::string arena;
  offsets.push_back(0);
  for (TermId id = 1; id <= n; ++id) {
    const Term& t = dict.Decode(id);
    const uint8_t kind = static_cast<uint8_t>(t.kind);
    const uint32_t lens[3] = {static_cast<uint32_t>(t.lexical.size()),
                              static_cast<uint32_t>(t.datatype.size()),
                              static_cast<uint32_t>(t.language.size())};
    arena.push_back(static_cast<char>(kind));
    AppendPod(&arena, lens, sizeof(lens));
    arena += t.lexical;
    arena += t.datatype;
    arena += t.language;
    offsets.push_back(arena.size());
  }

  // Rebuild the probe table by inserting ids in ascending order (the same
  // sizing rule as Dictionary::Reserve) instead of copying the live table:
  // the live layout depends on rehash history, the rebuilt one only on
  // content, so images stay deterministic.
  uint64_t num_slots = 64;
  while (n * 10 >= num_slots * 7) num_slots *= 2;
  std::vector<DictionaryView::Slot> slots(num_slots);
  const uint64_t mask = num_slots - 1;
  for (TermId id = 1; id <= n; ++id) {
    const uint64_t h = Dictionary::HashTerm(dict.Decode(id));
    uint64_t i = h & mask;
    while (slots[i].id != kInvalidTermId) i = (i + 1) & mask;
    slots[i] = DictionaryView::Slot{h, id, 0};
  }

  meta->num_terms = n;
  meta->num_slots = num_slots;
  meta->mint_counter = dict.mint_counter();
  out->AddArray<uint64_t>(SectionId::kTermOffsets, offsets);
  out->Add(SectionId::kTermArena, std::move(arena));
  out->AddArray<DictionaryView::Slot>(SectionId::kDictSlots, slots);
}

void AppendDenseSections(const DenseGraph& dg, ImageMeta* meta,
                         ImageBuilder* out) {
  const DenseGraph::Raw r = dg.raw();
  meta->num_nodes = r.terms.size();
  meta->num_props = r.prop_terms.size();
  meta->num_data_edges = r.edges.size();
  meta->node_of_term_len = r.node_of_term.size();
  meta->prop_of_term_len = r.prop_of_term.size();
  meta->num_out_entries = r.out_entries.size();
  meta->num_in_entries = r.in_entries.size();
  meta->num_class_entries = r.classes.size();
  meta->num_class_sets = r.num_class_sets;
  out->AddArray(SectionId::kNodeTerms, r.terms);
  out->AddArray(SectionId::kNodeOfTerm, r.node_of_term);
  out->AddArray(SectionId::kHasData, r.has_data);
  out->AddArray(SectionId::kPropTerms, r.prop_terms);
  out->AddArray(SectionId::kPropOfTerm, r.prop_of_term);
  out->AddArray(SectionId::kEdges, r.edges);
  out->AddArray(SectionId::kOutOffsets, r.out_offsets);
  out->AddArray(SectionId::kOutEntries, r.out_entries);
  out->AddArray(SectionId::kInOffsets, r.in_offsets);
  out->AddArray(SectionId::kInEntries, r.in_entries);
  out->AddArray(SectionId::kSourceAnchor, r.source_anchor);
  out->AddArray(SectionId::kTargetAnchor, r.target_anchor);
  out->AddArray(SectionId::kClassOffsets, r.class_offsets);
  out->AddArray(SectionId::kClasses, r.classes);
  out->AddArray(SectionId::kClassSetId, r.class_set_id);
}

// ---- FrozenImage ------------------------------------------------------------

bool FrozenImage::HasSection(SectionId id) const {
  const uint32_t i = static_cast<uint32_t>(id);
  if (descs_.empty() || i == 0 || i > kImageMaxSections) return false;
  return section_index_[i] >= 0;
}

std::span<const char> FrozenImage::SectionBytes(SectionId id) const {
  if (!HasSection(id)) return {};
  const SectionDesc& d = descs_[section_index_[static_cast<uint32_t>(id)]];
  return {data_ + d.offset, static_cast<size_t>(d.size)};
}

namespace {

/// Structural validation: every section's byte size must match the kMeta
/// counts exactly and every index/id/offset must stay in range, so that no
/// accessor over the mapped arrays can read out of bounds even on a
/// checksum-valid adversarial file. `img` is fully attached except for this
/// final gate.
Status ValidateStructure(const FrozenImage& img) {
  const ImageMeta& m = img.meta();
  auto bytes = [&](SectionId id) { return img.SectionBytes(id); };

  // Dictionary: ids are u32 and 0 is reserved.
  if (m.num_terms > 0xFFFFFFFEull) return Corrupt("term count exceeds u32");
  if (!SizeIs(m.num_terms + 1, 8, bytes(SectionId::kTermOffsets).size())) {
    return Corrupt("term-offset section size mismatch");
  }
  std::span<const uint64_t> offs = img.Array<uint64_t>(SectionId::kTermOffsets);
  std::span<const char> arena = bytes(SectionId::kTermArena);
  if (offs[0] != 0 || offs[m.num_terms] != arena.size()) {
    return Corrupt("term arena does not match its offsets");
  }
  for (uint64_t i = 0; i < m.num_terms; ++i) {
    if (offs[i + 1] < offs[i]) return Corrupt("term offsets not monotone");
    const uint64_t rec_len = offs[i + 1] - offs[i];
    if (rec_len < kImageTermRecordHeaderBytes) {
      return Corrupt("term record shorter than its header");
    }
    const char* rec = arena.data() + offs[i];
    const uint8_t kind = static_cast<uint8_t>(rec[0]);
    if (kind > 2) return Corrupt("term record with invalid kind");
    uint32_t lens[3];
    std::memcpy(lens, rec + 1, sizeof(lens));
    const uint64_t want = kImageTermRecordHeaderBytes + uint64_t{lens[0]} +
                          lens[1] + lens[2];
    if (want != rec_len) return Corrupt("term record length mismatch");
  }
  if (m.num_slots == 0 || (m.num_slots & (m.num_slots - 1)) != 0 ||
      m.num_terms >= m.num_slots) {
    return Corrupt("slot table not a power of two with a free slot");
  }
  if (!SizeIs(m.num_slots, sizeof(DictionaryView::Slot),
              bytes(SectionId::kDictSlots).size())) {
    return Corrupt("slot section size mismatch");
  }
  for (const DictionaryView::Slot& s :
       img.Array<DictionaryView::Slot>(SectionId::kDictSlots)) {
    if (s.id > m.num_terms) return Corrupt("slot id out of range");
  }

  // Statistics counts cannot exceed what they count (a lying count would
  // not be unsafe, but it would silently mislead the planner).
  if (m.num_distinct_subjects > m.num_triples ||
      m.num_distinct_predicates > m.num_triples ||
      m.num_distinct_objects > m.num_triples) {
    return Corrupt("distinct counts exceed the triple count");
  }

  // Permutations: strictly sorted (the table is deduplicated) with every
  // position a live term id.
  auto check_perm = [&](SectionId id, auto less,
                        const char* name) -> Status {
    if (!SizeIs(m.num_triples, sizeof(Triple), bytes(id).size())) {
      return Corrupt(std::string(name) + " permutation size mismatch");
    }
    std::span<const Triple> rows = img.Array<Triple>(id);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Triple& t = rows[i];
      if (t.s == 0 || t.p == 0 || t.o == 0 || t.s > m.num_terms ||
          t.p > m.num_terms || t.o > m.num_terms) {
        return Corrupt(std::string(name) + " row with out-of-range term id");
      }
      if (i > 0 && !less(rows[i - 1], t)) {
        return Corrupt(std::string(name) + " permutation not strictly sorted");
      }
    }
    return Status::OK();
  };
  RDFSUM_RETURN_IF_ERROR(check_perm(
      SectionId::kSpo, [](const Triple& a, const Triple& b) { return a < b; },
      "SPO"));
  RDFSUM_RETURN_IF_ERROR(check_perm(
      SectionId::kPos,
      [](const Triple& a, const Triple& b) {
        if (a.p != b.p) return a.p < b.p;
        if (a.o != b.o) return a.o < b.o;
        return a.s < b.s;
      },
      "POS"));
  RDFSUM_RETURN_IF_ERROR(check_perm(
      SectionId::kOsp,
      [](const Triple& a, const Triple& b) {
        if (a.o != b.o) return a.o < b.o;
        if (a.s != b.s) return a.s < b.s;
        return a.p < b.p;
      },
      "OSP"));

  if (!SizeIs(m.num_predicates, sizeof(ImagePredStat),
              bytes(SectionId::kPredStats).size())) {
    return Corrupt("predicate-stats section size mismatch");
  }
  std::span<const ImagePredStat> preds =
      img.Array<ImagePredStat>(SectionId::kPredStats);
  for (size_t i = 0; i < preds.size(); ++i) {
    if (preds[i].p == 0 || preds[i].p > m.num_terms) {
      return Corrupt("predicate stats for out-of-range term id");
    }
    if (i > 0 && preds[i].p <= preds[i - 1].p) {
      return Corrupt("predicate stats not strictly sorted");
    }
  }

  // Component triples: bounds only (order is payload, not structure).
  auto check_triples = [&](SectionId id, uint64_t count,
                           const char* name) -> Status {
    if (!SizeIs(count, sizeof(Triple), bytes(id).size())) {
      return Corrupt(std::string(name) + " section size mismatch");
    }
    for (const Triple& t : img.Array<Triple>(id)) {
      if (t.s == 0 || t.p == 0 || t.o == 0 || t.s > m.num_terms ||
          t.p > m.num_terms || t.o > m.num_terms) {
        return Corrupt(std::string(name) + " row with out-of-range term id");
      }
    }
    return Status::OK();
  };
  RDFSUM_RETURN_IF_ERROR(
      check_triples(SectionId::kTypeTriples, m.num_type_triples, "type"));
  RDFSUM_RETURN_IF_ERROR(check_triples(SectionId::kSchemaTriples,
                                       m.num_schema_triples, "schema"));

  if (!img.has_dense()) return Status::OK();

  // Dense substrate: dense ids are u32 with 0xFFFFFFFF as the kNone
  // sentinel, CSR offsets are u32 — pin the ranges before the size checks
  // that multiply by them.
  constexpr uint32_t kNone = 0xFFFFFFFFu;
  if (m.num_nodes >= kNone || m.num_props >= kNone ||
      m.num_class_sets >= kNone || m.num_out_entries > kNone ||
      m.num_in_entries > kNone || m.num_class_entries > kNone) {
    return Corrupt("dense counts exceed u32 id space");
  }
  struct Sized {
    SectionId id;
    uint64_t count;
    uint64_t elem;
    const char* name;
  };
  const Sized sized[] = {
      {SectionId::kNodeTerms, m.num_nodes, 4, "node-term"},
      {SectionId::kNodeOfTerm, m.node_of_term_len, 4, "node-of-term"},
      {SectionId::kHasData, m.num_nodes, 1, "has-data"},
      {SectionId::kPropTerms, m.num_props, 4, "prop-term"},
      {SectionId::kPropOfTerm, m.prop_of_term_len, 4, "prop-of-term"},
      {SectionId::kEdges, m.num_data_edges, 12, "edge"},
      {SectionId::kOutOffsets, m.num_nodes + 1, 4, "out-offset"},
      {SectionId::kOutEntries, m.num_out_entries, 8, "out-entry"},
      {SectionId::kInOffsets, m.num_nodes + 1, 4, "in-offset"},
      {SectionId::kInEntries, m.num_in_entries, 8, "in-entry"},
      {SectionId::kSourceAnchor, m.num_props, 4, "source-anchor"},
      {SectionId::kTargetAnchor, m.num_props, 4, "target-anchor"},
      {SectionId::kClassOffsets, m.num_nodes + 1, 4, "class-offset"},
      {SectionId::kClasses, m.num_class_entries, 4, "class"},
      {SectionId::kClassSetId, m.num_nodes, 4, "class-set-id"},
  };
  for (const Sized& s : sized) {
    if (!SizeIs(s.count, s.elem, bytes(s.id).size())) {
      return Corrupt(std::string(s.name) + " section size mismatch");
    }
  }
  auto check_ids = [&](std::span<const uint32_t> ids, uint64_t limit,
                       bool allow_none, const char* name) -> Status {
    for (uint32_t v : ids) {
      if (allow_none && v == kNone) continue;
      if (v >= limit) {
        return Corrupt(std::string(name) + " entry out of range");
      }
    }
    return Status::OK();
  };
  auto check_terms = [&](std::span<const uint32_t> ids,
                         const char* name) -> Status {
    for (uint32_t v : ids) {
      if (v == 0 || v > m.num_terms) {
        return Corrupt(std::string(name) + " entry is not a term id");
      }
    }
    return Status::OK();
  };
  auto check_csr = [&](std::span<const uint32_t> offs2, uint64_t total,
                       const char* name) -> Status {
    if (offs2.front() != 0 || offs2.back() != total) {
      return Corrupt(std::string(name) + " offsets do not span the entries");
    }
    for (size_t i = 1; i < offs2.size(); ++i) {
      if (offs2[i] < offs2[i - 1]) {
        return Corrupt(std::string(name) + " offsets not monotone");
      }
    }
    return Status::OK();
  };
  RDFSUM_RETURN_IF_ERROR(check_terms(
      img.Array<uint32_t>(SectionId::kNodeTerms), "node-term"));
  RDFSUM_RETURN_IF_ERROR(check_terms(
      img.Array<uint32_t>(SectionId::kPropTerms), "prop-term"));
  RDFSUM_RETURN_IF_ERROR(check_terms(img.Array<uint32_t>(SectionId::kClasses),
                                     "class"));
  RDFSUM_RETURN_IF_ERROR(check_ids(
      img.Array<uint32_t>(SectionId::kNodeOfTerm), m.num_nodes, true,
      "node-of-term"));
  RDFSUM_RETURN_IF_ERROR(check_ids(
      img.Array<uint32_t>(SectionId::kPropOfTerm), m.num_props, true,
      "prop-of-term"));
  RDFSUM_RETURN_IF_ERROR(check_ids(
      img.Array<uint32_t>(SectionId::kSourceAnchor), m.num_nodes, true,
      "source-anchor"));
  RDFSUM_RETURN_IF_ERROR(check_ids(
      img.Array<uint32_t>(SectionId::kTargetAnchor), m.num_nodes, true,
      "target-anchor"));
  RDFSUM_RETURN_IF_ERROR(check_ids(
      img.Array<uint32_t>(SectionId::kClassSetId), m.num_class_sets, true,
      "class-set-id"));
  for (const DenseGraph::Edge& e : img.Array<DenseGraph::Edge>(
           SectionId::kEdges)) {
    if (e.s >= m.num_nodes || e.o >= m.num_nodes || e.p >= m.num_props) {
      return Corrupt("edge with out-of-range dense id");
    }
  }
  RDFSUM_RETURN_IF_ERROR(check_csr(
      img.Array<uint32_t>(SectionId::kOutOffsets), m.num_out_entries, "out"));
  RDFSUM_RETURN_IF_ERROR(check_csr(
      img.Array<uint32_t>(SectionId::kInOffsets), m.num_in_entries, "in"));
  RDFSUM_RETURN_IF_ERROR(check_csr(
      img.Array<uint32_t>(SectionId::kClassOffsets), m.num_class_entries,
      "class"));
  for (const DenseGraph::Neighbor& nb : img.Array<DenseGraph::Neighbor>(
           SectionId::kOutEntries)) {
    if (nb.p >= m.num_props || nb.node >= m.num_nodes) {
      return Corrupt("out-entry with out-of-range dense id");
    }
  }
  for (const DenseGraph::Neighbor& nb : img.Array<DenseGraph::Neighbor>(
           SectionId::kInEntries)) {
    if (nb.p >= m.num_props || nb.node >= m.num_nodes) {
      return Corrupt("in-entry with out-of-range dense id");
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<FrozenImage> FrozenImage::Attach(const char* data, size_t size) {
  if (!HostIsLittleEndian()) {
    return Status::NotSupported("frozen images require a little-endian host");
  }
  if (size < sizeof(ImageHeader)) {
    return Corrupt("file shorter than the header");
  }
  ImageHeader header;
  std::memcpy(&header, data, sizeof(header));
  if (std::memcmp(header.magic, kImageMagic, sizeof(kImageMagic)) != 0) {
    return Corrupt("bad magic (not a frozen store image)");
  }
  if (ImageFnv1a64(data, 40) != header.header_checksum) {
    return Corrupt("header checksum mismatch");
  }
  if (header.version_major != kImageVersionMajor) {
    return Status::NotSupported(
        "frozen image has major version " +
        std::to_string(header.version_major) + "; this build reads " +
        std::to_string(kImageVersionMajor));
  }
  if (header.file_size != size) {
    return Corrupt("declared file size does not match the actual size");
  }
  if (header.section_count == 0 || header.section_count > kImageMaxSections) {
    return Corrupt("section count out of range");
  }
  const uint64_t table_bytes =
      uint64_t{header.section_count} * sizeof(SectionDesc);
  const uint64_t table_end = sizeof(ImageHeader) + table_bytes;
  if (table_end > size) return Corrupt("section table past end of file");
  if (ImageFnv1a64(data + sizeof(ImageHeader), table_bytes) !=
      header.table_checksum) {
    return Corrupt("section table checksum mismatch");
  }

  FrozenImage img;
  img.data_ = data;
  img.size_ = size;
  img.flags_ = header.flags;
  img.descs_.resize(header.section_count);
  std::memcpy(img.descs_.data(), data + sizeof(ImageHeader), table_bytes);
  for (uint32_t i = 0; i <= kImageMaxSections; ++i) img.section_index_[i] = -1;

  // Canonical layout: payloads in strictly ascending id order, each starting
  // at ImageAlignUp of the previous end, all padding zero, the file ending
  // exactly at the last payload. The equalities make the layout a function
  // of the contents — there is nowhere for unchecksummed bytes to hide.
  uint64_t prev_end = table_end;
  uint32_t prev_id = 0;
  for (size_t i = 0; i < img.descs_.size(); ++i) {
    const SectionDesc& d = img.descs_[i];
    if (d.id == 0 || d.id > kImageMaxSections) {
      return Corrupt("section id out of range");
    }
    if (d.id <= prev_id) return Corrupt("section ids not strictly ascending");
    if (d.offset != ImageAlignUp(prev_end)) {
      return Corrupt("section offset breaks the canonical layout");
    }
    if (d.size > size || d.offset > size - d.size) {
      return Corrupt("section extends past end of file");
    }
    for (uint64_t b = prev_end; b < d.offset; ++b) {
      if (data[b] != 0) return Corrupt("nonzero padding between sections");
    }
    prev_id = d.id;
    prev_end = d.offset + d.size;
    img.section_index_[d.id] = static_cast<int>(i);
  }
  if (prev_end != size) return Corrupt("trailing bytes after last section");

  for (uint32_t id = 1; id <= 10; ++id) {
    if (img.section_index_[id] < 0) {
      return Corrupt("required section " + std::to_string(id) + " missing");
    }
  }
  for (uint32_t id = 11; id <= 25; ++id) {
    const bool present = img.section_index_[id] >= 0;
    if (present != img.has_dense()) {
      return Corrupt(img.has_dense()
                         ? "dense section " + std::to_string(id) + " missing"
                         : "dense section present without the dense flag");
    }
  }

  for (const SectionDesc& d : img.descs_) {
    if (ImageFnv1a64(data + d.offset, d.size) != d.checksum) {
      return Corrupt("checksum mismatch in section " + std::to_string(d.id));
    }
  }

  std::span<const char> meta_bytes = img.SectionBytes(SectionId::kMeta);
  if (meta_bytes.size() != sizeof(ImageMeta)) {
    return Corrupt("meta section size mismatch");
  }
  std::memcpy(&img.meta_, meta_bytes.data(), sizeof(ImageMeta));

  RDFSUM_RETURN_IF_ERROR(ValidateStructure(img));
  return img;
}

DictionaryView FrozenImage::dictionary_view() const {
  DictionaryView v;
  v.num_terms = meta_.num_terms;
  v.mint_counter = meta_.mint_counter;
  v.term_offsets = Array<uint64_t>(SectionId::kTermOffsets);
  v.arena = SectionBytes(SectionId::kTermArena);
  v.slots = Array<DictionaryView::Slot>(SectionId::kDictSlots);
  return v;
}

std::shared_ptr<const DenseGraph> LoadDenseFromImage(const FrozenImage& img) {
  DenseGraph::Raw r;
  r.terms = img.Array<TermId>(SectionId::kNodeTerms);
  r.node_of_term = img.Array<uint32_t>(SectionId::kNodeOfTerm);
  r.has_data = img.Array<uint8_t>(SectionId::kHasData);
  r.prop_terms = img.Array<TermId>(SectionId::kPropTerms);
  r.prop_of_term = img.Array<uint32_t>(SectionId::kPropOfTerm);
  r.edges = img.Array<DenseGraph::Edge>(SectionId::kEdges);
  r.out_offsets = img.Array<uint32_t>(SectionId::kOutOffsets);
  r.out_entries = img.Array<DenseGraph::Neighbor>(SectionId::kOutEntries);
  r.in_offsets = img.Array<uint32_t>(SectionId::kInOffsets);
  r.in_entries = img.Array<DenseGraph::Neighbor>(SectionId::kInEntries);
  r.source_anchor = img.Array<uint32_t>(SectionId::kSourceAnchor);
  r.target_anchor = img.Array<uint32_t>(SectionId::kTargetAnchor);
  r.class_offsets = img.Array<uint32_t>(SectionId::kClassOffsets);
  r.classes = img.Array<TermId>(SectionId::kClasses);
  r.class_set_id = img.Array<uint32_t>(SectionId::kClassSetId);
  r.num_class_sets = static_cast<uint32_t>(img.meta().num_class_sets);
  return std::make_shared<const DenseGraph>(DenseGraph::FromRaw(r));
}

}  // namespace rdfsum
