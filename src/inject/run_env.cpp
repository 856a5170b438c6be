#include "inject/run_env.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "support/env.hpp"
#include "support/error.hpp"
#include "support/trace.hpp"

namespace care::inject {

namespace {

/// `name` through `parse`, or nullopt when it is unset (or empty, unless
/// `emptyIsSet`). A parse error is raised again naming the variable.
template <typename Parse>
auto read(const EnvLookup& lookup, const char* name, Parse parse,
          bool emptyIsSet = false)
    -> std::optional<decltype(parse(std::string()))> {
  const char* v = lookup(name);
  if (!v || (!*v && !emptyIsSet)) return std::nullopt;
  try {
    return parse(std::string(v));
  } catch (const Error& e) {
    raise(std::string(name) + ": " + e.what());
  }
}

std::uint64_t count(const std::string& s) {
  if (const std::optional<std::uint64_t> v = parseCount(s)) return *v;
  raise("bad count '" + s + "' (expected a non-negative decimal integer)");
}

/// A worker count, clamped to int.
int workers(const std::string& s) {
  return static_cast<int>(
      std::min<std::uint64_t>(count(s), std::numeric_limits<int>::max()));
}

std::string text(const std::string& s) { return s; }

vm::InterpKind interp(const std::string& s) { return vm::parseInterp(s); }

} // namespace

RunEnv readRunEnv(const EnvLookup& lookup) {
  const EnvLookup getenvLookup = [](const char* name) -> const char* {
    return std::getenv(name);
  };
  const EnvLookup& get = lookup ? lookup : getenvLookup;
  RunEnv e;
  e.detect = read(get, "CARE_DETECT", sentinel::parseDetect,
                  /*emptyIsSet=*/true);
  e.detectSample = read(get, "CARE_DETECT_SAMPLE", pareto::parseDetectSample);
  e.recover = read(get, "CARE_RECOVER", core::parseRecoveryStrategy);
  e.fault = read(get, "CARE_FAULT", parseFaultModel);
  e.ecc = read(get, "CARE_ECC", vm::parseEccMode);
  e.prune = read(get, "CARE_PRUNE", pareto::parsePruneFlag);
  e.pruneAudit = read(get, "CARE_PRUNE_AUDIT", pareto::parsePruneAudit);
  e.ckptInterval = read(get, "CARE_CKPT_INTERVAL", count);
  e.processes = read(get, "CARE_PROCS", workers);
  e.threads = read(get, "CARE_THREADS", workers);
  e.resultStore = read(get, "CARE_RESULT_STORE", text, /*emptyIsSet=*/true);
  e.interp = read(get, "CARE_INTERP", interp);
  e.telemetry = read(get, "CARE_TELEMETRY", text);
  e.trace = read(get, "CARE_TRACE", text);
  return e;
}

void RunEnv::apply(core::ArmorOptions& a) const {
  if (detect) a.detect = *detect;
  if (detectSample) a.detectSample = *detectSample;
}

void RunEnv::apply(CampaignConfig& c) const {
  if (recover) c.recover = *recover;
  if (fault) c.fault = *fault;
  if (ecc) c.ecc = *ecc;
  if (prune) c.prune.enabled = *prune;
  if (pruneAudit) c.prune.auditK = *pruneAudit;
  if (ckptInterval)
    c.checkpointEveryInstrs = c.rollbackEveryInstrs = *ckptInterval;
}

void RunEnv::apply(ExperimentConfig& c) const {
  apply(c.armor);
  apply(c.campaign);
  if (processes) c.processes = *processes;
  if (threads) c.threads = *threads;
  if (resultStore) c.resultStore = *resultStore;
}

void RunEnv::install() const {
  if (interp) vm::setDefaultInterp(*interp);
  if (trace) trace::enable(*this->trace);
  if (telemetry) setTelemetrySink(*telemetry);
}

} // namespace care::inject
