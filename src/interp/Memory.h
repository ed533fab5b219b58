//===- interp/Memory.h - Paged interpreter memory ---------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Word-addressed memory for the functional interpreter. Every cell reads
/// as zero until written, and every int64_t address is valid, negative
/// and extreme ones included.
///
/// Cells live in 16-cell pages: page key = Addr >> 4 (a floor), slot =
/// Addr & 15, and a cell's address is rebuilt as key * 16 + slot, which
/// cannot overflow. All pages sit in one vector, found through a flat
/// open-addressing index (power-of-two capacity, load at most 1/2) that
/// maps page keys to page positions. Copying a memory -- every run starts
/// from a copy of its program's initial image -- copies two vectors and
/// allocates nothing per cell; the equivalence oracle compares two
/// memories page by page (firstDifference).
///
/// Footprint. A page holds 16 values and a written mask (136 B); the
/// index adds 2-4 slots of 16 B per page. The interpreter's traffic is
/// dense -- the Table-2 suite ends its runs at ~13 written cells per page
/// -- so a run costs ~13-15 B per written cell. The worst case is an
/// isolated written cell: one page plus its index slots, ~170-200 B.
/// Each new page takes at least one store step, so a run's memory is
/// bounded by its step cap: cprd's profiling runs by --max-interp-steps
/// (docs/SERVICE.md). Re-measure that worst case before making pages
/// larger.
///
/// A const Memory is safe to read from several threads: no member is
/// mutable, and a read never caches anything.
///
//===----------------------------------------------------------------------===//

#ifndef INTERP_MEMORY_H
#define INTERP_MEMORY_H

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace cpr {

/// Paged 64-bit-word memory; unwritten cells read as zero.
class Memory {
public:
  int64_t load(int64_t Addr) const {
    uint32_t P = find(pageKey(Addr));
    return P == NoPage ? 0 : Pages[P].Cells[slot(Addr)];
  }

  void store(int64_t Addr, int64_t Value) {
    int64_t Key = pageKey(Addr);
    uint32_t P = find(Key);
    if (P == NoPage)
      P = addPage(Key);
    Page &Pg = Pages[P];
    unsigned S = slot(Addr);
    Pg.Cells[S] = Value;
    uint16_t Bit = static_cast<uint16_t>(1u << S);
    if (!(Pg.Written & Bit)) {
      Pg.Written |= Bit;
      ++WrittenCells;
    }
  }

  /// Distinct cells ever stored to; a stored 0 counts.
  size_t numWrittenCells() const { return WrittenCells; }

  /// The written cells as (address, value) pairs in address order.
  std::vector<std::pair<int64_t, int64_t>> sortedCells() const;

  /// The lowest address at which this memory and \p O read differently,
  /// an unwritten cell reading as 0 (so a stored 0 equals no store);
  /// std::nullopt when they read the same everywhere.
  std::optional<int64_t> firstDifference(const Memory &O) const;

private:
  static constexpr int64_t PageCells = 16;
  static constexpr uint32_t NoPage = ~0u;

  struct Page {
    int64_t Cells[PageCells] = {};
    uint16_t Written = 0; ///< bit s: slot s was stored to
  };
  /// An index slot; Page == NoPage marks it empty.
  struct Slot {
    int64_t Key;
    uint32_t Page;
  };

  static int64_t pageKey(int64_t Addr) { return Addr >> 4; }
  static unsigned slot(int64_t Addr) {
    return static_cast<unsigned>(Addr & 15);
  }
  static int64_t address(int64_t Key, unsigned Slot) {
    return Key * PageCells + Slot;
  }

  /// Home slot of \p Key: Fibonacci hashing keeps both consecutive and
  /// power-of-two-strided keys apart.
  size_t home(int64_t Key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(Key) * 0x9E3779B97F4A7C15ull) >> Shift);
  }

  uint32_t find(int64_t Key) const {
    if (Index.empty())
      return NoPage;
    size_t Mask = Index.size() - 1;
    for (size_t I = home(Key);; I = (I + 1) & Mask) {
      const Slot &S = Index[I];
      if (S.Page == NoPage || S.Key == Key)
        return S.Page;
    }
  }

  /// Adds an empty page for \p Key, which has none yet.
  uint32_t addPage(int64_t Key);
  /// Puts \p S in the first free index slot from its key's home.
  void place(Slot S);
  void rehash(size_t Capacity);

  std::vector<Page> Pages;
  std::vector<Slot> Index;
  unsigned Shift = 64; ///< 64 - log2(Index.size())
  size_t WrittenCells = 0;
};

} // namespace cpr

#endif // INTERP_MEMORY_H
