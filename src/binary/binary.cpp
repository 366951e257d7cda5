#include "src/binary/binary.h"

#include <algorithm>

namespace dtaint {

const Section* Binary::FindSection(std::string_view name) const {
  for (const Section& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const Symbol* Binary::FindSymbol(std::string_view name) const {
  for (const Symbol& s : symbols) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const Symbol* Binary::SymbolAt(uint32_t addr) const {
  for (const Symbol& s : symbols) {
    if (addr >= s.addr && addr < s.addr + s.size) return &s;
  }
  return nullptr;
}

const Import* Binary::ImportAt(uint32_t addr) const {
  for (const Import& imp : imports) {
    if (imp.stub_addr == addr) return &imp;
  }
  return nullptr;
}

bool Binary::IsImportStub(uint32_t addr) const {
  return ImportAt(addr) != nullptr;
}

Result<uint32_t> Binary::ReadWordAt(uint32_t addr) const {
  if (const Section* section = SectionOf(addr)) {
    return ReadWordIn(*section, addr);
  }
  return OutOfRange("address not mapped: " + std::to_string(addr));
}

const Section* Binary::SectionOf(uint32_t addr) const {
  for (const Section& s : sections) {
    if (HoldsWord(s, addr)) return &s;
  }
  return nullptr;
}

uint32_t Binary::ReadWordIn(const Section& section, uint32_t addr) const {
  const uint64_t off = addr - section.addr;
  if (off + 4 > section.bytes.size()) return 0;  // .bss tail
  return ReadWord(arch, section.bytes.data() + off);
}

uint64_t Binary::MappedSize() const {
  uint64_t total = 0;
  for (const Section& s : sections) total += s.size;
  return total;
}

}  // namespace dtaint
