#include "src/binary/loader.h"

#include "src/resilience/fault.h"
#include "src/util/hash.h"

namespace dtaint {

namespace {

/// Cursor over the serialized image with bounds-checked readers.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return bytes_[pos_++];
  }
  uint16_t U16() {
    uint16_t lo = U8();
    return static_cast<uint16_t>(lo | (uint16_t{U8()} << 8));
  }
  uint32_t U32() {
    uint32_t lo = U16();
    return lo | (uint32_t{U16()} << 16);
  }
  uint64_t U64() {
    uint64_t lo = U32();
    return lo | (uint64_t{U32()} << 32);
  }
  std::string Str() {
    uint16_t len = U16();
    if (!Need(len)) return {};
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  std::vector<uint8_t> Bytes(size_t n) {
    if (!Need(n)) return {};
    std::vector<uint8_t> out(bytes_.begin() + pos_, bytes_.begin() + pos_ + n);
    pos_ += n;
    return out;
  }

 private:
  bool Need(size_t n) {
    if (pos_ + n > bytes_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

bool BinaryLoader::LooksLikeBinary(std::span<const uint8_t> bytes) {
  return bytes.size() >= 4 && bytes[0] == 'D' && bytes[1] == 'T' &&
         bytes[2] == 'B' && bytes[3] == '1';
}

Result<Binary> BinaryLoader::Load(std::span<const uint8_t> bytes,
                                  std::string_view origin) {
  // Every error names the input and the byte offset the parse died at:
  // "cgibin.bin: section payload truncated at offset 142". Incident
  // logs from a fleet scan are actionable without replaying the parse.
  const std::string where =
      origin.empty() ? std::string() : std::string(origin) + ": ";
  if (FaultPlan::Global().ShouldFail(FaultSite::kLoad, origin)) {
    return Internal(where + "injected load fault");
  }
  if (!LooksLikeBinary(bytes)) {
    return CorruptData(where + "missing DTB1 magic at offset 0");
  }
  if (bytes.size() < 12 + 8) {
    return CorruptData(where + "image truncated (" +
                       std::to_string(bytes.size()) + " bytes)");
  }
  // Verify trailing checksum over everything before it.
  size_t body_size = bytes.size() - 8;
  uint64_t want = 0;
  for (int i = 7; i >= 0; --i) want = (want << 8) | bytes[body_size + i];
  uint64_t got = Fnv1a(bytes.subspan(0, body_size));
  if (want != got) {
    return CorruptData(where + "checksum mismatch (corrupted image)");
  }

  Reader r(bytes.subspan(0, body_size));
  auto corrupt = [&](const std::string& what) {
    return CorruptData(where + what + " at offset " +
                       std::to_string(r.pos()));
  };
  (void)r.Bytes(4);  // magic, already checked
  uint8_t arch_raw = r.U8();
  if (arch_raw > static_cast<uint8_t>(Arch::kDtMips)) {
    return corrupt("unknown architecture tag");
  }
  Binary bin;
  bin.arch = static_cast<Arch>(arch_raw);
  (void)r.U8();   // flags
  (void)r.U16();  // reserved
  bin.soname = r.Str();
  bin.entry = r.U32();
  uint32_t n_sections = r.U32();
  uint32_t n_symbols = r.U32();
  uint32_t n_imports = r.U32();
  if (!r.ok()) return corrupt("header truncated");
  if (n_sections > 64 || n_symbols > 1u << 20 || n_imports > 4096) {
    return corrupt("implausible table sizes");
  }

  for (uint32_t i = 0; i < n_sections; ++i) {
    Section s;
    uint8_t kind = r.U8();
    if (kind > static_cast<uint8_t>(SectionKind::kBss)) {
      return corrupt("bad section kind");
    }
    s.kind = static_cast<SectionKind>(kind);
    s.name = r.Str();
    s.addr = r.U32();
    s.size = r.U32();
    uint32_t payload = r.U32();
    if (!r.ok() || payload > r.remaining()) {
      return corrupt("section payload truncated");
    }
    if (payload > s.size) return corrupt("payload larger than section");
    s.bytes = r.Bytes(payload);
    bin.sections.push_back(std::move(s));
  }
  for (uint32_t i = 0; i < n_symbols; ++i) {
    Symbol sym;
    sym.name = r.Str();
    sym.addr = r.U32();
    sym.size = r.U32();
    sym.is_function = r.U8() != 0;
    bin.symbols.push_back(std::move(sym));
  }
  for (uint32_t i = 0; i < n_imports; ++i) {
    Import imp;
    imp.name = r.Str();
    imp.stub_addr = r.U32();
    bin.imports.push_back(std::move(imp));
  }
  if (!r.ok()) return corrupt("tables truncated");

  // Structural sanity.
  // Mapped sections must not overlap in the address space — an
  // overlapping layout lets one section's bytes shadow another's,
  // which corrupts concretized data loads downstream.
  for (size_t i = 0; i < bin.sections.size(); ++i) {
    const Section& a = bin.sections[i];
    uint64_t a_end = uint64_t{a.addr} + a.size;
    for (size_t j = i + 1; j < bin.sections.size(); ++j) {
      const Section& b = bin.sections[j];
      uint64_t b_end = uint64_t{b.addr} + b.size;
      if (a.addr < b_end && b.addr < a_end && a.size > 0 && b.size > 0) {
        return CorruptData(where + "overlapping sections: " + a.name +
                           " and " + b.name);
      }
    }
  }
  // Symbols must point into .text. 64-bit arithmetic: addr + size on
  // a hostile input can wrap uint32 and sneak past a 32-bit compare.
  const Section* text = bin.FindSection(".text");
  if (!text) return CorruptData(where + "no .text section");
  uint64_t text_end = uint64_t{text->addr} + text->size;
  for (const Symbol& sym : bin.symbols) {
    if (sym.is_function &&
        (sym.addr < text->addr ||
         uint64_t{sym.addr} + sym.size > text_end)) {
      return CorruptData(where + "function symbol outside .text: " +
                         sym.name);
    }
  }
  return bin;
}

}  // namespace dtaint
