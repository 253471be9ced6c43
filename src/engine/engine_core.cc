#include "src/engine/engine_core.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <utility>

#include "src/core/decide.h"
#include "src/core/validate.h"
#include "src/dl/concept_parser.h"
#include "src/dl/normalize.h"
#include "src/query/parser.h"
#include "src/schema/schema_parser.h"
#include "src/util/fingerprint.h"
#include "src/util/invariant.h"
#include "src/util/json.h"

namespace gqc {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

std::size_t VocabBytes(const Vocabulary& vocab) {
  // Interned name strings + id tables, at a flat per-symbol rate.
  return 48 * (vocab.concept_count() + vocab.role_count());
}

}  // namespace

EngineCore::EngineCore(EngineOptions options)
    : options_(std::move(options)), pool_(options_.threads) {
  // Wire the core-lifetime compile memo into every downstream search, so
  // every pair's solves share it. Callers may pre-wire their own.
  if (options_.containment.countermodel.limits.compile_memo == nullptr) {
    options_.containment.countermodel.limits.compile_memo = &compile_memo_;
  }
}

std::shared_ptr<const EngineCore::SchemaContext> EngineCore::BuildSchemaContext(
    const std::string& schema_text, bool warm) {
  auto ctx = std::make_shared<SchemaContext>();
  ctx->warm = warm;
  Result<TBox> parsed = [&] {
    PhaseTimer timer(&stats_.parse_ns);
    std::string_view trimmed = Trim(schema_text);
    if (trimmed.empty() || trimmed == "-") return Result<TBox>(TBox{});
    // Same auto-detection as the CLI: concept syntax has "<=" inclusions,
    // the PG-Schema surface syntax does not.
    if (schema_text.find("<=") != std::string::npos) {
      return ParseTBox(schema_text, &ctx->vocab);
    }
    return ParseSchema(schema_text, &ctx->vocab);
  }();
  if (!parsed.ok()) {
    ctx->error = "schema: " + parsed.error();
  } else {
    PhaseTimer timer(&stats_.normalize_ns);
    ctx->tbox = Normalize(parsed.value(), &ctx->vocab);
  }
  return ctx;
}

EngineCore::SchemaTable::Lookup EngineCore::LookupSchemaContext(
    const std::string& schema_text, bool warm) {
  // Built outside the table lock: on a racing double-miss both threads build
  // the identical context (it is a pure function of the text) and the first
  // insert wins, so determinism is unaffected.
  SchemaTable::Lookup got = schema_ctxs_.GetOrBuild(FpKey(schema_text), [&] {
    if (!warm) stats_.schema_ctx_misses.fetch_add(1, std::memory_order_relaxed);
    auto ctx = BuildSchemaContext(schema_text, warm);
    std::size_t bytes = 96 * ctx->tbox.size() + VocabBytes(ctx->vocab) + 128;
    return Built{std::move(ctx), bytes};
  });
  if (got.hit && !warm) {
    stats_.schema_ctx_hits.fetch_add(1, std::memory_order_relaxed);
    if (got.value->warm) {
      stats_.warmstart_hits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return got;
}

std::shared_ptr<const EngineCore::QueryContext> EngineCore::BuildQueryContext(
    const std::string& schema_text, const std::string& q_text,
    ResourceGuard* guard, bool warm) {
  // The schema is looked up the way the query context is: a warm-start
  // build counts no live hit or miss.
  auto schema_ctx = LookupSchemaContext(schema_text, warm).value;
  auto ctx = std::make_shared<QueryContext>();
  ctx->warm = warm;
  ctx->schema = schema_ctx;
  if (!schema_ctx->error.empty()) {
    ctx->error = schema_ctx->error;
    return ctx;
  }
  // Layer Q's symbols on a private copy of the schema vocabulary; every
  // pair against this (T, Q) then copies the result, so symbol ids are a
  // deterministic function of (schema text, Q text) alone.
  ctx->vocab = schema_ctx->vocab;
  Result<Ucrpq> q = [&] {
    PhaseTimer timer(&stats_.parse_ns);
    return ParseUcrpq(q_text, &ctx->vocab, &regex_cache_, &stats_);
  }();
  if (!q.ok()) {
    ctx->error = "q: " + q.error();
  } else {
    ctx->q = std::move(q).value();
    const NormalTBox& tbox = schema_ctx->tbox;
    if (!options_.containment.disable_reduction &&
        ReductionCovers(tbox, ctx->q)) {
      ReductionOptions ropts;
      ropts.countermodel = options_.containment.countermodel;
      ropts.countermodel.limits.guard = guard;
      ropts.factorize = options_.containment.factorize;
      ropts.factorize.guard = guard;
      ropts.stats = &stats_;
      if (!warm) stats_.closure_misses.fetch_add(1, std::memory_order_relaxed);
      auto closure = ComputeTpClosure(ctx->q, tbox, !tbox.UsesInverse(),
                                      &ctx->vocab, ropts);
      // On failure the closure stays null and the reduction does not run for
      // pairs against this context.
      if (closure.ok()) {
        ctx->closure =
            std::make_shared<const TpClosure>(std::move(closure).value());
      }
    }
  }
  // Vocabulary layering: Q's context must extend the schema context (same
  // ids for every schema symbol, new ids appended), or disjunct decisions
  // sharing the closure would disagree about symbol identity.
  GQC_DCHECK(ctx->vocab.concept_count() >= schema_ctx->vocab.concept_count());
  GQC_DCHECK(ctx->vocab.role_count() >= schema_ctx->vocab.role_count());
  return ctx;
}

EngineCore::QueryTable::Lookup EngineCore::LookupQueryContext(
    const std::string& schema_text, const std::string& q_text,
    ResourceGuard* guard, bool warm) {
  std::string key_text = JoinKeyParts(schema_text, q_text);
  // Pair verdicts are a pure function of (schema text, Q text) given the
  // engine's pinned options; the composite key must round-trip to exactly
  // those parts or two distinct contexts could alias.
  GQC_AUDIT(ValidateCacheKey(key_text, {schema_text, q_text}));
  FpKey key(std::move(key_text));
  QueryTable::Lookup got = query_ctxs_.GetOrBuild(std::move(key), [&] {
    if (!warm) stats_.query_ctx_misses.fetch_add(1, std::memory_order_relaxed);
    auto ctx = BuildQueryContext(schema_text, q_text, guard, warm);
    std::size_t bytes = VocabBytes(ctx->vocab) + 256;
    if (ctx->closure != nullptr) {
      bytes += 8 * ctx->closure->engine_masks.size() + 1024;
    }
    // A context whose closure build tripped the caller's guard reflects that
    // caller's budget (or the batch deadline), not (schema, Q); caching it
    // would degrade later, better-funded pairs. Return it uncached.
    bool cache = guard == nullptr || !guard->exhausted();
    return Built{std::move(ctx), bytes, cache};
  });
  if (got.hit && !warm) {
    stats_.query_ctx_hits.fetch_add(1, std::memory_order_relaxed);
    if (got.value->closure != nullptr) {
      stats_.closure_hits.fetch_add(1, std::memory_order_relaxed);
    }
    if (got.value->warm) {
      stats_.warmstart_hits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return got;
}

BatchOutcome EngineCore::DecidePair(const BatchItem& item,
                                    const BatchControl& control) {
  auto start = std::chrono::steady_clock::now();
  BatchOutcome out;
  out.id = item.id;

  // Effective pair deadline: the tighter of the per-pair budget deadline
  // (relative to now) and the batch deadline (absolute, pinned at batch
  // start). Pinned once here and shared by every guard of this pair; step
  // and memory budgets stay per guard.
  DecisionPolicy policy;
  policy.budget = options_.containment.resources;
  policy.budget.cancel = control.cancel;
  policy.has_deadline = control.has_deadline;
  policy.deadline = control.deadline;
  policy.PinDeadline(start);

  // Preemption: a cancelled batch or an already-passed deadline skips the
  // pair entirely — no parsing, no searches — but still yields a (tallied)
  // Unknown outcome so completed batches always account for every item.
  bool cancelled = control.cancel.cancelled();
  if (cancelled || (policy.has_deadline && start >= policy.deadline)) {
    out.ok = true;
    out.verdict = Verdict::kUnknown;
    out.attr.unknown.emplace();
    out.attr.unknown->reason = cancelled ? "cancelled" : "deadline";
    out.attr.unknown->phase = GuardPhaseName(GuardPhase::kSetup);
    out.attr.note = cancelled ? "preempted: batch cancelled before decision"
                              : "preempted: deadline passed before decision";
    stats_.RecordPreempted();
    ContainmentResult preempted;
    preempted.verdict = Verdict::kUnknown;
    TallyPair(&stats_, preempted);
    out.wall_ms = MsSince(start);
    return out;
  }

  // The setup guard spans context assembly (including a Tp-closure build on
  // a context miss); each disjunct decision below gets its own fresh guard.
  ResourceGuard setup_guard(policy.budget, policy.has_deadline,
                            policy.deadline);
  std::shared_ptr<const QueryContext> qctx =
      LookupQueryContext(item.schema_text, item.q_text, &setup_guard,
                         /*warm=*/false)
          .value;
  if (setup_guard.exhausted()) stats_.RecordGuard(setup_guard);
  if (!qctx->error.empty()) {
    out.error = qctx->error;
    stats_.pairs_error.fetch_add(1, std::memory_order_relaxed);
    out.wall_ms = MsSince(start);
    return out;
  }

  // Per-pair vocabulary: a copy of the (schema, Q) context layer; P's
  // symbols intern into the copy, never into shared state.
  Vocabulary vocab = qctx->vocab;
  Result<Ucrpq> p = [&] {
    PhaseTimer timer(&stats_.parse_ns);
    return ParseUcrpq(item.p_text, &vocab, &regex_cache_, &stats_);
  }();
  if (!p.ok()) {
    out.error = "p: " + p.error();
    stats_.pairs_error.fetch_add(1, std::memory_order_relaxed);
    out.wall_ms = MsSince(start);
    return out;
  }

  // Every strategy only reads the pair vocabulary (vocab_shared), so the
  // disjuncts and a race's strategies nest freely on the pool; the reduction
  // runs only on the context's precomputed closure.
  StrategyContext ctx;
  ctx.q = &qctx->q;
  ctx.schema = &qctx->schema->tbox;
  ctx.closure = qctx->closure.get();
  ctx.vocab = &vocab;
  ctx.options = &options_.containment;
  ctx.stats = &stats_;
  ctx.vocab_shared = true;
  policy.race = options_.portfolio;
  policy.pool = &pool_;
  ContainmentResult combined = DecideUnion(p.value(), ctx, policy);
  out.ok = true;
  out.verdict = combined.verdict;
  out.attr = std::move(combined.attr);
  if (combined.countermodel.has_value()) {
    out.countermodel_nodes = combined.countermodel->NodeCount();
  } else if (combined.central_part.has_value()) {
    out.countermodel_nodes = combined.central_part->NodeCount();
  }
  out.wall_ms = MsSince(start);
  return out;
}

EngineCore::BatchControl EngineCore::StartControl(ControlHandle* handle) {
  return StartControl(options_.batch_timeout_ms, handle);
}

EngineCore::BatchControl EngineCore::StartControl(double timeout_ms,
                                                  ControlHandle* handle) {
  if (timeout_ms <= 0) timeout_ms = options_.batch_timeout_ms;
  BatchControl control;
  if (timeout_ms > 0) {
    control.has_deadline = true;
    control.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(timeout_ms));
  }
  MutexLock lock(&cancel_mu_);
  *handle = active_controls_.insert(active_controls_.end(), control.cancel);
  return control;
}

void EngineCore::FinishControl(ControlHandle handle) {
  MutexLock lock(&cancel_mu_);
  active_controls_.erase(handle);
}

void EngineCore::CancelAll() {
  MutexLock lock(&cancel_mu_);
  for (CancellationToken& token : active_controls_) token.Cancel();
}

void EngineCore::SetCacheBudget(const CacheBudget& budget) {
  regex_cache_.SetBudget(budget);
  compile_memo_.SetBudget(budget);
  schema_ctxs_.SetBudget(budget);
  query_ctxs_.SetBudget(budget);
}

std::size_t EngineCore::Evict(double pressure) {
  std::size_t freed = regex_cache_.Evict(pressure) +
                      compile_memo_.Evict(pressure) +
                      schema_ctxs_.Evict(pressure).entries +
                      query_ctxs_.Evict(pressure).entries;
  RefreshLifecycleGauges();
  return freed;
}

std::size_t EngineCore::retained_bytes() const {
  return regex_cache_.retained_bytes() + compile_memo_.retained_bytes() +
         schema_ctxs_.retained_bytes() + query_ctxs_.retained_bytes();
}

EngineCore::SnapshotKeys EngineCore::ExportSnapshotKeys() const {
  SnapshotKeys keys;
  schema_ctxs_.ForEach([&](const FpKey& k, const auto& ctx) {
    // Contexts that failed to parse are not worth re-warming.
    if (ctx->error.empty()) keys.schemas.push_back(k.text());
  });
  query_ctxs_.ForEach([&](const FpKey& k, const auto& ctx) {
    if (!ctx->error.empty()) return;
    auto parts = SplitKeyParts(k.text());
    if (parts.has_value() && parts->size() == 2) {
      keys.queries.emplace_back(std::move((*parts)[0]), std::move((*parts)[1]));
    }
  });
  std::sort(keys.schemas.begin(), keys.schemas.end());
  std::sort(keys.queries.begin(), keys.queries.end());
  return keys;
}

std::size_t EngineCore::WarmStart(const SnapshotKeys& keys) {
  std::size_t loaded = 0;
  for (const std::string& schema_text : keys.schemas) {
    if (!LookupSchemaContext(schema_text, /*warm=*/true).hit) ++loaded;
  }
  // Each context is built under a live miss's step and memory budget (a
  // snapshot has no request deadline): a key whose closure build would trip
  // a request's guard is built and dropped exactly as on a live miss, never
  // cached with a closure no request could have built.
  ResourceBudget budget;
  budget.max_steps = options_.containment.resources.max_steps;
  budget.max_memory_bytes = options_.containment.resources.max_memory_bytes;
  for (const auto& [schema_text, q_text] : keys.queries) {
    ResourceGuard guard(budget);
    if (!LookupQueryContext(schema_text, q_text, &guard, /*warm=*/true).hit &&
        !guard.exhausted()) {
      ++loaded;
    }
  }
  stats_.warmstart_loaded.fetch_add(loaded, std::memory_order_relaxed);
  return loaded;
}

void EngineCore::RefreshLifecycleGauges() {
  stats_.compile_memo_hits.store(compile_memo_.hits(),
                                 std::memory_order_relaxed);
  stats_.compile_memo_misses.store(compile_memo_.misses(),
                                   std::memory_order_relaxed);
  stats_.cache_retained_bytes.store(retained_bytes(),
                                    std::memory_order_relaxed);
}

std::string EngineCore::StatsJson() {
  RefreshLifecycleGauges();
  return stats_.ToJson();
}

void EngineCore::ResetState() {
  schema_ctxs_.Clear();
  query_ctxs_.Clear();
  regex_cache_.Clear();
  compile_memo_.Clear();
  stats_.Reset();
}

Result<BatchItem> ParseBatchItemJson(std::string_view json_line) {
  auto fields = ParseFlatJsonObject(json_line);
  if (!fields.ok()) return Result<BatchItem>::Error("batch item: " + fields.error());
  BatchItem item;
  bool have_p = false;
  bool have_q = false;
  for (const JsonField& f : fields.value()) {
    if (f.key == "id") {
      item.id = f.value;
    } else if (f.key == "schema") {
      item.schema_text = f.value;
    } else if (f.key == "p") {
      item.p_text = f.value;
      have_p = true;
    } else if (f.key == "q") {
      item.q_text = f.value;
      have_q = true;
    } else {
      return Result<BatchItem>::Error("batch item: unknown field \"" + f.key + "\"");
    }
  }
  if (!have_p || !have_q) {
    return Result<BatchItem>::Error("batch item: fields \"p\" and \"q\" are required");
  }
  return item;
}

std::string OutcomeToJson(const BatchOutcome& outcome) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id").String(outcome.id);
  w.Key("ok").Bool(outcome.ok);
  if (!outcome.ok) {
    w.Key("error").String(outcome.error);
  } else {
    w.Key("verdict").String(VerdictName(outcome.verdict));
    if (!outcome.attr.strategy.empty()) {
      w.Key("strategy").String(outcome.attr.strategy);
    }
    if (!outcome.attr.note.empty()) w.Key("note").String(outcome.attr.note);
    if (outcome.attr.unknown.has_value()) {
      w.Key("unknown_reason").String(outcome.attr.unknown->reason);
      w.Key("unknown_phase").String(outcome.attr.unknown->phase);
    }
    if (outcome.countermodel_nodes > 0) {
      w.Key("countermodel_nodes").UInt(outcome.countermodel_nodes);
    }
  }
  w.Key("wall_ms").Double(outcome.wall_ms);
  w.EndObject();
  return w.Take();
}

}  // namespace gqc
