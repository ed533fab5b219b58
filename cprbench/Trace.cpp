//===- cprbench/Trace.cpp - In-memory span recorder -----------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "Bench.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>

using namespace cprbench;

namespace {

std::atomic<Tracer *> ActiveTracer{nullptr};

/// Open spans of this thread, innermost last: (span index, id).
thread_local std::vector<std::pair<int64_t, uint64_t>> OpenSpans;

unsigned threadNumber() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned N = Next.fetch_add(1);
  return N;
}

} // namespace

Tracer::Tracer() : Epoch(std::chrono::steady_clock::now()) {}

Tracer *Tracer::active() { return ActiveTracer.load(); }
void Tracer::setActive(Tracer *T) { ActiveTracer.store(T); }

size_t Tracer::begin(const char *Name, uint64_t Id, int64_t Parent) {
  Span S;
  S.Name = Name;
  S.Id = Id;
  S.Parent = Parent;
  S.Thread = threadNumber();
  S.StartMs = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - Epoch)
                  .count();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back(S);
  return Spans.size() - 1;
}

void Tracer::end(size_t Idx) {
  double Now = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - Epoch)
                   .count();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[Idx].EndMs = Now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::vector<Span> All = spans();
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"traceEvents\":[\n";
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%lld}}%s\n",
                  S.Name, S.Thread, S.StartMs * 1000.0,
                  S.durationMs() * 1000.0,
                  static_cast<unsigned long long>(S.Id),
                  static_cast<long long>(S.Parent),
                  I + 1 < All.size() ? "," : "");
    Out << Buf;
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}

ScopedSpan::ScopedSpan(const char *Name, int64_t Id) : T(Tracer::active()) {
  if (!T)
    return;
  int64_t Parent = OpenSpans.empty() ? -1 : OpenSpans.back().first;
  uint64_t SpanId = Id >= 0 ? static_cast<uint64_t>(Id)
                            : (OpenSpans.empty() ? 0 : OpenSpans.back().second);
  Idx = static_cast<int64_t>(T->begin(Name, SpanId, Parent));
  OpenSpans.emplace_back(Idx, SpanId);
}

ScopedSpan::~ScopedSpan() {
  if (!T)
    return;
  T->end(static_cast<size_t>(Idx));
  OpenSpans.pop_back();
}

AdoptParent::AdoptParent(int64_t Parent) {
  if (Parent < 0)
    return;
  OpenSpans.emplace_back(Parent, 0);
  Pushed = true;
}

AdoptParent::~AdoptParent() {
  if (Pushed)
    OpenSpans.pop_back();
}

std::vector<double> cprbench::selfTimesMs(const std::vector<Span> &Spans) {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].durationMs();
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -= S.durationMs();
  // Children on other threads may overlap each other; a parent's self time
  // never goes below zero.
  for (double &V : Self)
    if (V < 0.0)
      V = 0.0;
  return Self;
}

std::vector<size_t> cprbench::rootsOf(const std::vector<Span> &Spans) {
  // Parents are always recorded before their children.
  std::vector<size_t> Root(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Root[I] = Spans[I].Parent < 0 ? I
                                  : Root[static_cast<size_t>(Spans[I].Parent)];
  return Root;
}

bool cprbench::isHarnessSpan(const char *Name) {
  return std::strcmp(Name, "pass") == 0 || std::strcmp(Name, "session") == 0;
}

const char *cprbench::internName(const std::string &Name) {
  static std::mutex Mu;
  static std::set<std::string> Names;
  std::lock_guard<std::mutex> Lock(Mu);
  return Names.insert(Name).first->c_str();
}

double PassProfile::layerMs(const std::string &Name) const {
  double Sum = 0.0;
  for (auto It = SelfMs.lower_bound(Name); It != SelfMs.end(); ++It) {
    const std::string &K = It->first;
    if (K.compare(0, Name.size(), Name) != 0)
      break;
    if (K.size() == Name.size() || K[Name.size()] == '.')
      Sum += It->second;
  }
  return Sum;
}

std::vector<PassProfile>
cprbench::profilePasses(const std::vector<Span> &Spans, const char *RootName) {
  std::vector<double> Self = selfTimesMs(Spans);
  std::vector<size_t> Root = rootsOf(Spans);
  std::map<size_t, size_t> Slot; // root span index -> result index
  std::vector<PassProfile> Passes;
  for (size_t I = 0; I < Spans.size(); ++I) {
    if (Spans[I].Parent >= 0 || std::strcmp(Spans[I].Name, RootName) != 0)
      continue;
    Slot[I] = Passes.size();
    Passes.emplace_back();
    Passes.back().WallMs = Spans[I].durationMs();
  }
  for (size_t I = 0; I < Spans.size(); ++I) {
    auto It = Slot.find(Root[I]);
    if (It == Slot.end() || isHarnessSpan(Spans[I].Name) ||
        Spans[I].Parent < 0)
      continue;
    PassProfile &P = Passes[It->second];
    P.SelfMs[Spans[I].Name] += Self[I];
    P.AttributedMs += Self[I];
  }
  return Passes;
}

double cprbench::medianLayerMs(const std::vector<PassProfile> &Passes,
                               const std::string &Name) {
  std::vector<double> V;
  for (const PassProfile &P : Passes)
    V.push_back(P.layerMs(Name));
  return median(V);
}
