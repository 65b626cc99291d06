#include "engine/dictionary.h"

#include <algorithm>
#include <utility>

#include "telemetry/telemetry.h"
#include "util/string_util.h"

namespace flexrel {

namespace {

// Re-intern once the dictionary outgrows its live codes 2:1 — but never
// below this floor: tiny dictionaries re-coding on every churn would pay
// the O(rows) recode pass for nothing.
constexpr size_t kReinternFloor = 64;

}  // namespace

CodeColumn::Code CodeColumn::Intern(const Value& value) {
  auto [it, fresh] = interned_.try_emplace(value, code_bound());
  if (fresh) {
    values_.push_back(value);
    buckets_.emplace_back();
    FLEXREL_TELEMETRY_COUNT("engine.codec.interned_codes", 1);
  }
  return it->second;
}

CodeColumn CodeColumn::Build(const std::vector<Tuple>& rows, AttrId attr) {
  CodeColumn column;
  column.attr_ = attr;
  column.generation_ = 1;
  FLEXREL_TELEMETRY_COUNT("engine.codec.generation_bumps", 1);
  // Code 0 is the reserved null, interned up front so CodeOf(Null) is 0
  // whether or not the instance carries an explicit null.
  column.Intern(Value::Null());
  column.codes_.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Value* v = rows[i].Get(attr);
    if (v == nullptr) {
      column.codes_.push_back(kMissingCode);
      continue;
    }
    const Code code = column.Intern(*v);
    column.codes_.push_back(code);
    std::vector<RowId>& bucket = column.buckets_[code];
    if (bucket.empty()) ++column.live_codes_;
    bucket.push_back(static_cast<RowId>(i));  // i ascending -> bucket sorted
    ++column.defined_;
  }
  return column;
}

const std::vector<CodeColumn::RowId>& CodeColumn::RowsOf(
    const Value& value) const {
  static const std::vector<RowId> kNone;
  const Code code = CodeOf(value);
  return code == kMissingCode ? kNone : buckets_[code];
}

void CodeColumn::ApplyBatch(size_t num_rows, const std::vector<Move>& moves) {
  if (codes_.size() < num_rows) codes_.resize(num_rows, kMissingCode);
  // Re-code every mover first, collecting the (code, row) pairs leaving and
  // joining each bucket. Sorting them groups the burst by code with rows
  // ascending.
  static thread_local std::vector<std::pair<Code, RowId>> leaving;
  static thread_local std::vector<std::pair<Code, RowId>> joining;
  leaving.clear();
  joining.clear();
  for (const Move& m : moves) {
    const Code old_code = codes_[m.row];
    const Code new_code = m.value == nullptr ? kMissingCode : Intern(*m.value);
    if (old_code == new_code) continue;
    if (old_code != kMissingCode) leaving.push_back({old_code, m.row});
    if (new_code != kMissingCode) joining.push_back({new_code, m.row});
    codes_[m.row] = new_code;
  }
  std::sort(leaving.begin(), leaving.end());
  std::sort(joining.begin(), joining.end());
  size_t l = 0;
  size_t j = 0;
  while (l < leaving.size() || j < joining.size()) {
    const Code code =
        std::min(l < leaving.size() ? leaving[l].first : kMissingCode,
                 j < joining.size() ? joining[j].first : kMissingCode);
    size_t l_end = l;
    while (l_end < leaving.size() && leaving[l_end].first == code) ++l_end;
    size_t j_end = j;
    while (j_end < joining.size() && joining[j_end].first == code) ++j_end;
    std::vector<RowId>& bucket = buckets_[code];
    const size_t old_size = bucket.size();
    // Rows below the lowest touched one are untouched; the splice works in
    // place above it. Leaving rows close up front to back, then joining
    // rows merge in back to front, so an append is a push_back.
    const RowId lowest =
        std::min(l < l_end ? leaving[l].second : kMissingCode,
                 j < j_end ? joining[j].second : kMissingCode);
    const size_t keep = static_cast<size_t>(
        std::lower_bound(bucket.begin(), bucket.end(), lowest) -
        bucket.begin());
    if (l < l_end) {
      auto write = std::lower_bound(
          bucket.begin() + static_cast<ptrdiff_t>(keep), bucket.end(),
          leaving[l].second);
      auto read = write;
      for (; l < l_end; ++l) {
        ++read;  // past leaving[l]
        auto next = l + 1 < l_end ? std::lower_bound(read, bucket.end(),
                                                     leaving[l + 1].second)
                                  : bucket.end();
        write = std::move(read, next, write);
        read = next;
      }
      bucket.erase(write, bucket.end());
    }
    if (j < j_end) {
      const size_t before = bucket.size();
      bucket.resize(before + (j_end - j));
      auto src_end = bucket.begin() + static_cast<ptrdiff_t>(before);
      auto dst_end = bucket.end();
      for (size_t k = j_end; k-- > j;) {
        auto pos = std::upper_bound(
            bucket.begin() + static_cast<ptrdiff_t>(keep), src_end,
            joining[k].second);
        dst_end = std::move_backward(pos, src_end, dst_end);
        *--dst_end = joining[k].second;
        src_end = pos;
      }
      j = j_end;
    }
    if (old_size == 0 && !bucket.empty()) ++live_codes_;
    if (old_size != 0 && bucket.empty()) --live_codes_;
    defined_ = defined_ + bucket.size() - old_size;
  }
}

bool CodeColumn::MaybeReintern() {
  // The reserved null code is "live" for code-space purposes whether or
  // not any row carries it — it can never be retired.
  const size_t keep = live_codes_ + (buckets_[kNullCode].empty() ? 1 : 0);
  if (values_.size() <= kReinternFloor || values_.size() <= 2 * keep) {
    return false;
  }
  FLEXREL_TELEMETRY_COUNT("engine.codec.reintern_flushes", 1);
  FLEXREL_TELEMETRY_COUNT("engine.codec.generation_bumps", 1);
  // Recode densely in old-code order (deterministic): code 0 stays the
  // null, live codes keep their relative order, dead codes vanish.
  std::vector<Code> remap(values_.size(), kMissingCode);
  std::vector<Value> values;
  std::vector<std::vector<RowId>> buckets;
  values.reserve(keep);
  buckets.reserve(keep);
  for (Code old_code = 0; old_code < values_.size(); ++old_code) {
    if (old_code != kNullCode && buckets_[old_code].empty()) continue;
    remap[old_code] = static_cast<Code>(values.size());
    values.push_back(std::move(values_[old_code]));
    buckets.push_back(std::move(buckets_[old_code]));
  }
  for (Code& c : codes_) {
    if (c != kMissingCode) c = remap[c];
  }
  interned_.clear();
  interned_.reserve(values.size());
  for (Code c = 0; c < values.size(); ++c) interned_.emplace(values[c], c);
  values_ = std::move(values);
  buckets_ = std::move(buckets);
  ++generation_;
  return true;
}

bool CodeColumn::CheckInvariants(std::string* error) const {
  auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  if (values_.empty() || !values_[kNullCode].is_null()) {
    return fail("code 0 is not the reserved null");
  }
  if (values_.size() != buckets_.size() ||
      values_.size() != interned_.size()) {
    return fail("dictionary/bucket/intern-map sizes disagree");
  }
  for (Code c = 0; c < values_.size(); ++c) {
    auto it = interned_.find(values_[c]);
    if (it == interned_.end() || it->second != c) {
      return fail(StrCat("code ", c, " not interned back to itself"));
    }
  }
  size_t defined = 0;
  size_t live = 0;
  for (Code c = 0; c < buckets_.size(); ++c) {
    const std::vector<RowId>& bucket = buckets_[c];
    if (!bucket.empty()) ++live;
    defined += bucket.size();
    for (size_t i = 0; i < bucket.size(); ++i) {
      if (i > 0 && bucket[i - 1] >= bucket[i]) {
        return fail(StrCat("bucket of code ", c, " not strictly ascending"));
      }
      if (bucket[i] >= codes_.size() || codes_[bucket[i]] != c) {
        return fail(StrCat("bucket of code ", c,
                           " lists a row coded differently"));
      }
    }
  }
  if (defined != defined_) return fail("defined count drifted");
  if (live != live_codes_) return fail("live-code count drifted");
  size_t coded = 0;
  for (size_t row = 0; row < codes_.size(); ++row) {
    const Code c = codes_[row];
    if (c == kMissingCode) continue;
    if (c >= values_.size()) return fail(StrCat("row ", row, " code OOB"));
    ++coded;
  }
  if (coded != defined_) {
    return fail("column/bucket defined counts disagree");
  }
  return true;
}

}  // namespace flexrel
