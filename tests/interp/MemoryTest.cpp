//===- tests/interp/MemoryTest.cpp - Paged interpreter memory -------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "interp/Memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <thread>

using namespace cpr;

namespace {

const int64_t Min = std::numeric_limits<int64_t>::min();
const int64_t Max = std::numeric_limits<int64_t>::max();

TEST(InterpMemory, EveryAddressStoresAndLoadsIndependently) {
  const std::vector<int64_t> Addrs = {Min, Max, -1, 0, 15, 16};
  Memory M;
  for (size_t I = 0; I < Addrs.size(); ++I)
    M.store(Addrs[I], static_cast<int64_t>(I) + 100);
  for (size_t I = 0; I < Addrs.size(); ++I)
    EXPECT_EQ(M.load(Addrs[I]), static_cast<int64_t>(I) + 100) << Addrs[I];
  EXPECT_EQ(M.numWrittenCells(), Addrs.size());
  // Neighbours of every written cell read 0: a page's other slots and the
  // cells just across a page boundary.
  for (int64_t A : {Min + 1, Max - 1, int64_t(-2), int64_t(-16), int64_t(1),
                    int64_t(14), int64_t(17), int64_t(31), int64_t(32)})
    EXPECT_EQ(M.load(A), 0) << A;
  M.store(-1, 7); // overwriting does not add a cell
  EXPECT_EQ(M.load(-1), 7);
  EXPECT_EQ(M.numWrittenCells(), Addrs.size());
}

TEST(InterpMemory, UnwrittenCellsReadZero) {
  Memory M;
  EXPECT_EQ(M.load(0), 0);
  EXPECT_EQ(M.load(Min), 0);
  EXPECT_EQ(M.numWrittenCells(), 0u);
  EXPECT_TRUE(M.sortedCells().empty());
  EXPECT_FALSE(M.firstDifference(Memory()));
}

TEST(InterpMemory, AStoredZeroCountsButEqualsUnwritten) {
  Memory A, B;
  A.store(5, 0);
  A.store(Max, 0);
  EXPECT_EQ(A.numWrittenCells(), 2u);
  EXPECT_EQ(A.sortedCells(),
            (std::vector<std::pair<int64_t, int64_t>>{{5, 0}, {Max, 0}}));
  EXPECT_FALSE(A.firstDifference(B));
  EXPECT_FALSE(B.firstDifference(A));
  B.store(6, 0);
  EXPECT_FALSE(A.firstDifference(B));
  B.store(6, 1);
  EXPECT_EQ(A.firstDifference(B), 6);
  EXPECT_EQ(B.firstDifference(A), 6);
}

TEST(InterpMemory, FirstDifferenceIsTheLowestAddressAcrossPages) {
  Memory A, B;
  for (int64_t Addr = -64; Addr < 64; ++Addr) {
    A.store(Addr, Addr * 3);
    B.store(Addr, Addr * 3);
  }
  EXPECT_FALSE(A.firstDifference(B));
  A.store(40, 1);  // a page both have
  B.store(-17, 2); // a page both have, lower
  EXPECT_EQ(A.firstDifference(B), -17);
  EXPECT_EQ(B.firstDifference(A), -17);
  B.store(-1000, 4); // a page only B has
  EXPECT_EQ(A.firstDifference(B), -1000);
  EXPECT_EQ(B.firstDifference(A), -1000);
  A.store(Min, 1); // a page only A has, at the lowest address
  EXPECT_EQ(A.firstDifference(B), Min);
  EXPECT_EQ(B.firstDifference(A), Min);
  Memory C = A, D = A;
  C.store(Max, 1);
  EXPECT_EQ(C.firstDifference(D), Max);
  EXPECT_EQ(D.firstDifference(C), Max);
}

TEST(InterpMemory, ACopyIsIndependentOfItsSource) {
  Memory A;
  for (int64_t Addr = 0; Addr < 100; ++Addr)
    A.store(Addr, Addr);
  Memory B = A;
  B.store(3, -3);
  B.store(1 << 20, 9); // a new page: B's page vector may reallocate
  EXPECT_EQ(A.load(3), 3);
  EXPECT_EQ(A.load(1 << 20), 0);
  EXPECT_EQ(A.numWrittenCells(), 100u);
  EXPECT_EQ(B.numWrittenCells(), 101u);
  A.store(4, -4);
  EXPECT_EQ(B.load(4), 4);
  EXPECT_EQ(A.firstDifference(B), 3);
  B = A;
  EXPECT_FALSE(A.firstDifference(B));
  EXPECT_EQ(B.numWrittenCells(), 100u);
}

TEST(InterpMemory, SortedCellsAreInAddressOrder) {
  Memory M;
  const std::vector<int64_t> Addrs = {Max, 16, -1, Min, 15, 0, -17, 1 << 30};
  for (int64_t A : Addrs)
    M.store(A, A / 2);
  std::vector<std::pair<int64_t, int64_t>> Want;
  for (int64_t A : Addrs)
    Want.emplace_back(A, A / 2);
  std::sort(Want.begin(), Want.end());
  EXPECT_EQ(M.sortedCells(), Want);
}

TEST(InterpMemory, IsolatedStoresRunAndCompare) {
  // One page per cell, at a power-of-two stride that a hash of the low
  // key bits would pile onto one index slot.
  constexpr int64_t N = 100'000, Stride = int64_t(1) << 20;
  Memory A;
  for (int64_t I = 0; I < N; ++I)
    A.store((I - N / 2) * Stride, I + 1);
  EXPECT_EQ(A.numWrittenCells(), static_cast<size_t>(N));
  for (int64_t I = 0; I < N; I += 997)
    EXPECT_EQ(A.load((I - N / 2) * Stride), I + 1);
  EXPECT_EQ(A.load(Stride + 1), 0);
  Memory B = A;
  EXPECT_FALSE(A.firstDifference(B));
  B.store((N / 4) * Stride, 0);
  B.store(-(N / 4) * Stride, -1);
  EXPECT_EQ(A.firstDifference(B), -(N / 4) * Stride);
  std::vector<std::pair<int64_t, int64_t>> Cells = A.sortedCells();
  ASSERT_EQ(Cells.size(), static_cast<size_t>(N));
  EXPECT_EQ(Cells.front().first, -(N / 2) * Stride);
  EXPECT_TRUE(std::is_sorted(Cells.begin(), Cells.end()));
}

TEST(InterpMemory, AConstMemoryReadsFromManyThreads) {
  Memory Shared;
  for (int64_t Addr = -4096; Addr < 4096; Addr += 3)
    Shared.store(Addr, Addr ^ 0x55);
  Memory Other = Shared;
  Other.store(4001, -1);
  const Memory &C = Shared;
  std::vector<std::thread> Threads;
  std::vector<int> Ok(8, 0);
  for (int T = 0; T < 8; ++T)
    Threads.emplace_back([&, T] {
      bool Good = true;
      for (int64_t Addr = -4096 + T; Addr < 4096; Addr += 8)
        Good &= C.load(Addr) == ((Addr + 4096) % 3 == 0 ? Addr ^ 0x55 : 0);
      Good &= C.firstDifference(Other) == 4001;
      Memory Copy = C;
      Copy.store(T, T);
      Good &= Copy.numWrittenCells() >= C.numWrittenCells();
      Ok[T] = Good;
    });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T < 8; ++T)
    EXPECT_TRUE(Ok[T]) << T;
}

} // namespace
