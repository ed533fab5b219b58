//===- interp/Memory.cpp - Paged interpreter memory -----------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/Memory.h"

#include <algorithm>
#include <bit>

using namespace cpr;

uint32_t Memory::addPage(int64_t Key) {
  if (2 * (Pages.size() + 1) > Index.size())
    rehash(std::max<size_t>(16, 2 * Index.size()));
  uint32_t P = static_cast<uint32_t>(Pages.size());
  Pages.emplace_back();
  place(Slot{Key, P});
  return P;
}

void Memory::place(Slot S) {
  size_t Mask = Index.size() - 1;
  size_t I = home(S.Key);
  while (Index[I].Page != NoPage)
    I = (I + 1) & Mask;
  Index[I] = S;
}

void Memory::rehash(size_t Capacity) {
  std::vector<Slot> Old = std::move(Index);
  Index.assign(Capacity, Slot{0, NoPage});
  Shift = 64 - static_cast<unsigned>(std::countr_zero(Capacity));
  for (const Slot &S : Old)
    if (S.Page != NoPage)
      place(S);
}

std::vector<std::pair<int64_t, int64_t>> Memory::sortedCells() const {
  std::vector<Slot> Order;
  Order.reserve(Pages.size());
  for (const Slot &S : Index)
    if (S.Page != NoPage)
      Order.push_back(S);
  std::sort(Order.begin(), Order.end(),
            [](const Slot &A, const Slot &B) { return A.Key < B.Key; });
  std::vector<std::pair<int64_t, int64_t>> Out;
  Out.reserve(WrittenCells);
  for (const Slot &S : Order) {
    const Page &P = Pages[S.Page];
    for (unsigned I = 0; I < PageCells; ++I)
      if (P.Written & (1u << I))
        Out.emplace_back(address(S.Key, I), P.Cells[I]);
  }
  return Out;
}

std::optional<int64_t> Memory::firstDifference(const Memory &O) const {
  static constexpr int64_t Zeros[PageCells] = {};
  std::optional<int64_t> Lowest;
  // Pages are unordered: a page whose key lies above the lowest
  // difference found so far cannot lower it.
  auto Scan = [&](int64_t Key, const int64_t *A, const int64_t *B) {
    if (Lowest && Key > pageKey(*Lowest))
      return;
    for (unsigned I = 0; I < PageCells; ++I)
      if (A[I] != B[I]) {
        int64_t Addr = address(Key, I);
        if (!Lowest || Addr < *Lowest)
          Lowest = Addr;
        return;
      }
  };
  for (const Slot &S : Index)
    if (S.Page != NoPage) {
      uint32_t P = O.find(S.Key);
      Scan(S.Key, Pages[S.Page].Cells, P == NoPage ? Zeros : O.Pages[P].Cells);
    }
  // Pages only O has read against zeros here.
  for (const Slot &S : O.Index)
    if (S.Page != NoPage && find(S.Key) == NoPage)
      Scan(S.Key, Zeros, O.Pages[S.Page].Cells);
  return Lowest;
}
