// The DTBIN binary container — the repo's ELF stand-in.
//
// A binary has sections (.text/.data/.rodata/.bss), a symbol table of
// defined functions, and an import table naming external library
// functions (strcpy, recv, system, ...). Imported functions get "stub"
// addresses in a PLT-like address range; a BL to a stub address is a
// library call, which is how DTaint's source/sink model locates its
// sources and sinks (paper Table I).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/isa/regs.h"
#include "src/util/status.h"

namespace dtaint {

/// Fixed load addresses. Data sections live at fixed bases so code can
/// materialize pointers into them before the text size is known.
inline constexpr uint32_t kTextBase = 0x00010000;
inline constexpr uint32_t kPltBase = 0x00001000;    // import stubs
inline constexpr uint32_t kPltStride = 0x10;        // one stub every 16B
inline constexpr uint32_t kRodataBase = 0x00800000;
inline constexpr uint32_t kDataBase = 0x00900000;
inline constexpr uint32_t kBssBase = 0x00A00000;

enum class SectionKind : uint8_t { kText = 0, kRodata, kData, kBss };

struct Section {
  SectionKind kind;
  std::string name;   // ".text", ".data", ...
  uint32_t addr = 0;  // load address
  uint32_t size = 0;  // virtual size (>= bytes.size() for .bss)
  std::vector<uint8_t> bytes;
};

struct Symbol {
  std::string name;
  uint32_t addr = 0;
  uint32_t size = 0;       // bytes of code
  bool is_function = true;
};

struct Import {
  std::string name;        // e.g. "strcpy"
  uint32_t stub_addr = 0;  // PLT-like address BLs resolve to
};

/// A fully materialized binary, produced by BinaryWriter::Build or
/// BinaryLoader::Load.
struct Binary {
  Arch arch = Arch::kDtArm;
  std::string soname;  // display name, e.g. "cgibin"
  uint32_t entry = 0;
  std::vector<Section> sections;
  std::vector<Symbol> symbols;
  std::vector<Import> imports;

  const Section* FindSection(std::string_view name) const;
  const Symbol* FindSymbol(std::string_view name) const;
  /// Symbol whose [addr, addr+size) contains `addr`, if any.
  const Symbol* SymbolAt(uint32_t addr) const;
  /// Import with the given stub address, if any.
  const Import* ImportAt(uint32_t addr) const;
  /// True if addr lies in the PLT stub range of any import.
  bool IsImportStub(uint32_t addr) const;

  /// Reads a 32-bit word from any mapped section (arch endianness).
  Result<uint32_t> ReadWordAt(uint32_t addr) const;
  /// The section ReadWordAt reads the word at `addr` from: the first
  /// whose virtual range holds all four bytes, or nullptr.
  const Section* SectionOf(uint32_t addr) const;
  /// The word at `addr` of `section`, which must hold it (SectionOf):
  /// zero where it lies past the section's bytes (the .bss tail).
  uint32_t ReadWordIn(const Section& section, uint32_t addr) const;

  /// Total mapped size in bytes (sum of section virtual sizes).
  uint64_t MappedSize() const;
};

/// True when `section`'s virtual range holds the four bytes at `addr`.
/// 64-bit, so neither end wraps at 4 GiB.
inline bool HoldsWord(const Section& section, uint32_t addr) {
  return addr >= section.addr &&
         uint64_t{addr} + 4 <= uint64_t{section.addr} + section.size;
}

/// Reads words in address order, looking a section up only when the
/// address leaves the last section read: a sweep through one function
/// scans the section table once. Sections do not overlap (the loader
/// rejects it), so every word reads as Binary::ReadWordAt reads it.
class WordReader {
 public:
  explicit WordReader(const Binary& binary) : binary_(binary) {}

  /// Sets `word` to the word at `addr`; false when no section maps it.
  bool Read(uint32_t addr, uint32_t& word) {
    if (!section_ || !HoldsWord(*section_, addr)) {
      section_ = binary_.SectionOf(addr);
      if (!section_) return false;
    }
    word = binary_.ReadWordIn(*section_, addr);
    return true;
  }

 private:
  const Binary& binary_;
  const Section* section_ = nullptr;
};

}  // namespace dtaint
